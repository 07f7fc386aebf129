// Fixture for the call-graph builder: direct calls, method values,
// interface dispatch, function literals, and coldpath pruning.
package fixture

// EmitSink is dispatched dynamically from the hot path; reachability must
// fan out to every implementation.
type EmitSink interface {
	Emit(n int)
}

// ringSink implements EmitSink.
type ringSink struct{ data []int }

func (r *ringSink) Emit(n int) { r.grow(n) }

func (r *ringSink) grow(n int) { r.data = append(r.data, n) }

// flatSink also implements EmitSink: dispatch reaches both.
type flatSink struct{ n int }

func (f *flatSink) Emit(n int) { f.n = n }

type Machine struct {
	pred func(int) bool
	out  EmitSink
}

func (m *Machine) step() {
	m.advance()         // direct method call
	m.pred = m.eligible // method value: reachability follows the reference
	m.out.Emit(1)       // interface dispatch
	tally(2)            // direct function call
	f := func() { viaLiteral() }
	f()      // literal body is attributed to step
	m.dump() // coldpath callee: the edge exists, traversal stops
}

func (m *Machine) advance() {}

func (m *Machine) eligible(x int) bool { return x > 0 }

func tally(n int) {}

func viaLiteral() {}

// dump is exit-time debug work a hot function legitimately calls.
//
// simlint:coldpath exit-time debug dump
func (m *Machine) dump() { m.deep() }

// deep is only reachable through dump: pruned with it.
func (m *Machine) deep() {}

// orphan is never referenced.
func orphan() {}

// --- spawn edges and hook dispatch ---

// Options mirrors experiments.Options: Runner is a func-typed hook an
// outer layer injects. A call through it resolves to nothing; the value
// edge added where the method value is wired in is what keeps the
// injected implementation reachable.
type Options struct {
	Runner func(n int) int
}

type Pool struct {
	opts Options
	sink EmitSink
}

// inject wires a method value into the hook.
func (p *Pool) inject() {
	p.opts.Runner = p.cachedRun
}

func (p *Pool) cachedRun(n int) int { return n }

// runBatch calls through the func-typed hook (unresolvable at the call
// site) and dispatches through the interface-typed field (fans out).
func (p *Pool) runBatch(n int) int {
	p.sink.Emit(n)
	return p.opts.Runner(n)
}

// spawnAll exercises every spawn shape: a literal, a closure captured
// into a variable, a method value, and a named function. Each spawned
// call is an ordinary call edge of spawnAll.
func (p *Pool) spawnAll(n int) {
	go func() { p.runBatch(n) }()
	work := func() { tally(n) }
	go work()
	go p.cachedRun(n)
	go tally(n)
}
