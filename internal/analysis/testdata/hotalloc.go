// Fixture for the hotalloc analyzer. The fixture declares its own Machine
// with the default hot-path roots; everything reachable from step is hot.
package fixture

import (
	"fmt"
	"strings"
)

// Machine mirrors the simulator's hot-path shape.
type Machine struct {
	scratch []int
	counts  map[string]int
	name    strings.Builder
}

// Sink is dispatched through an interface so reachability must resolve
// the implementation.
type Sink interface {
	Put(n int)
}

// SliceSink is the concrete sink behind the interface.
type SliceSink struct {
	data []int
}

// Put lands in the hot set via interface dispatch from step.
func (s *SliceSink) Put(n int) {
	fmt.Println(n) // want "fmt.Println call in hot-path function SliceSink.Put"
}

func (m *Machine) step(s Sink) {
	m.process()
	s.Put(1)
	buf := make([]byte, 64) // ok: heap escapes are the compiler's, budgeted by the perf ratchet
	_ = buf
	m.name.WriteString("x") // want "strings.Builder use in hot-path function Machine.step"
}

// process is hot because step calls it.
func (m *Machine) process() {
	m.log("tick")                // the call itself is fine; the callee is checked below
	for k, v := range m.counts { // want "map iteration in hot-path function Machine.process"
		_ = k
		_ = v
	}
	if len(m.scratch) == 0 {
		panic(fmt.Sprintf("empty scratch %v", m)) // ok: panic arguments are terminal
	}
}

// log is hot (called from process): fmt on the per-cycle path.
func (m *Machine) log(msg string) {
	fmt.Println(msg) // want "fmt.Println call in hot-path function Machine.log"
}

// refill is reachable from step but declared amortised-cold, so its
// formatting is accepted and nothing past it is hot.
//
// simlint:coldpath slab refill amortised over thousands of cycles
func (m *Machine) refill() {
	fmt.Println("refill") // ok: coldpath marker
	m.deepCold()
}

// deepCold is only reachable through refill: not hot.
func (m *Machine) deepCold() {
	fmt.Println("deep") // ok: unreachable from the hot roots
}

// report is never called from a hot root.
func (m *Machine) report() string {
	return fmt.Sprintf("%v", m.counts) // ok: cold function
}

// suppressed shows the per-site escape hatch.
func (m *Machine) retire() {
	// simlint:ignore hotalloc one-time trace, measured harmless
	fmt.Println("retire")
	m.refill()
}
