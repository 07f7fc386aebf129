// Fixture for generics and method-expression call-graph coverage: step
// reaches clampAll/clampOne through a generic function call, push/grow
// through a method on an instantiated generic type, and drain/flush
// through a method expression.
package fixture

// Machine mirrors the simulator's hot-path shape.
type Machine struct{ vals []int }

func (m *Machine) step() {
	m.vals = clampAll(m.vals, 8)
	var s Stack[int]
	s.push(1)
	f := (*Machine).drain
	f(m)
}

// clampAll is a generic function; its call edge must resolve to the
// declared (origin) object, not a per-instantiation clone.
func clampAll[T ~int](xs []T, hi T) []T {
	for i, x := range xs {
		xs[i] = clampOne(x, hi)
	}
	return xs
}

func clampOne[T ~int](x, hi T) T {
	if x > hi {
		return hi
	}
	return x
}

// Stack is a generic container whose methods are reached through an
// instantiation (Stack[int]) on the hot path.
type Stack[T any] struct {
	items []T
}

func (s *Stack[T]) push(v T) {
	s.grow(1)
	s.items = append(s.items, v)
}

func (s *Stack[T]) grow(n int) {
	if cap(s.items)-len(s.items) < n {
		next := make([]T, len(s.items), cap(s.items)*2+n)
		copy(next, s.items)
		s.items = next
	}
}

func (m *Machine) drain() { m.flush() }

func (m *Machine) flush() { m.vals = m.vals[:0] }
