// Fixture for the ifacedispatch analyzer. step is a hot root; dynamic
// calls inside the hot set are findings unless the interface method is on
// the sanctioned list (EventSink.Event mirrors the real seam).
package fixture

// Machine mirrors the simulator's hot-path shape.
type Machine struct {
	sink  EventSink
	rng   Rand
	ready func(int) bool
}

// EventSink.Event is on the SanctionedDispatch list.
type EventSink interface {
	Event(kind int)
}

// Rand is not sanctioned: hot code must hold the concrete generator.
type Rand interface {
	Next() uint64
}

// NullSink is a concrete implementation so dispatch resolution has a body.
type NullSink struct{}

func (NullSink) Event(kind int) {}

// XorShift is the concrete generator behind Rand.
type XorShift struct{ s uint64 }

func (x *XorShift) Next() uint64 {
	x.s ^= x.s << 13
	return x.s
}

func (m *Machine) step() {
	m.sink.Event(1) // ok: sanctioned seam
	_ = m.rng.Next() // want "interface dispatch Rand.Next"
	if m.ready(3) {  // want "indirect call through field m.ready"
		m.tick(m.rng)
	}
	f := func(n int) int { return n }
	_ = f(2) // want "indirect call through function value f"
	_ = func(n int) int { return n }(3) // ok: called in place, a static call
}

// tick is hot via step; a concrete method call is not dispatch.
func (m *Machine) tick(r Rand) {
	var x XorShift
	_ = x.Next()  // ok: concrete receiver, direct call
	_ = r.Next()  // want "interface dispatch Rand.Next"
	// simlint:ignore ifacedispatch measured: one dispatch per probe flush
	_ = r.Next()
}

// report is cold: dispatch off the hot path is fine.
func (m *Machine) report() {
	_ = m.rng.Next() // ok: not hot-path-reachable
}
