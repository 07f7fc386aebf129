// Fixture for the fieldreset analyzer.
package fixture

// counterSet exercises the delegated-reset path.
type counterSet struct {
	n int
}

// Reset clears the set.
func (c *counterSet) Reset() {
	c.n = 0
}

// probe misses a field: stale carries over between uses.
type probe struct {
	hits   int
	misses int
	peak   int
	stale  bool
}

func (p *probe) Reset() { // want "leaves field stale unassigned"
	p.hits = 0
	p.misses = 0
	p.peak = 0
}

// tracker covers every field through the accepted idioms.
type tracker struct {
	cfg      int // simlint:noreset immutable configuration
	events   []int
	counters counterSet
	total    uint64
	grid     [4][4]int
}

func (t *tracker) Reset() { // ok: assigned, delegated, or exempted
	t.events = t.events[:0]
	t.counters.Reset()
	t.total = 0
	for i := range t.grid {
		for j := range t.grid[i] {
			t.grid[i][j] = 0
		}
	}
}

// snapshot resets by whole-struct assignment.
type snapshot struct {
	a, b, c int
	label   string
}

func (s *snapshot) Reset() { // ok: whole-struct assignment covers all fields
	*s = snapshot{}
}

// lowercase reset methods are held to the same contract.
type window struct {
	head int
	tail int
}

func (w *window) reset() { // want "leaves field tail unassigned"
	w.head = 0
}

// ignored shows the generic escape hatch.
type ignored struct {
	x int
	y int
}

// simlint:ignore fieldreset y is rebuilt lazily on first use
func (g *ignored) Reset() {
	g.x = 0
}

// Restore is not a Reset: no contract applies.
func (p *probe) Restore() {
	p.hits = 0
}

// pinned: a trailing marker exempts its own field only, never the field
// declared on the next line.
type pinned struct {
	size  int // simlint:noreset geometry
	count int
}

func (p *pinned) Reset() { // want "leaves field count unassigned"
}
