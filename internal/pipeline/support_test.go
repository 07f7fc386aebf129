package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"loosesim/internal/isa"
	"loosesim/internal/uop"
)

func mkU(seq uint64) *uop.UOp { return uop.New(isa.Inst{Op: isa.IntALU}, 0, seq, 0) }

func TestDequeFIFO(t *testing.T) {
	var d deque
	for i := uint64(1); i <= 5; i++ {
		d.push(mkU(i))
	}
	if d.len() != 5 {
		t.Fatalf("len = %d, want 5", d.len())
	}
	if d.front().Seq != 1 {
		t.Errorf("front seq = %d, want 1", d.front().Seq)
	}
	if got := d.popFront(); got.Seq != 1 {
		t.Errorf("pop seq = %d, want 1", got.Seq)
	}
	if d.at(0).Seq != 2 || d.at(3).Seq != 5 {
		t.Error("relative indexing broken after pop")
	}
}

func TestDequeTruncFrom(t *testing.T) {
	var d deque
	for i := uint64(1); i <= 6; i++ {
		d.push(mkU(i))
	}
	d.popFront()
	d.truncFrom(2) // keep seqs 2,3
	if d.len() != 2 || d.at(0).Seq != 2 || d.at(1).Seq != 3 {
		t.Fatalf("truncFrom wrong: len=%d", d.len())
	}
	d.truncFrom(0)
	if d.len() != 0 || d.front() != nil {
		t.Error("empty deque front must be nil")
	}
}

func TestDequeCompaction(t *testing.T) {
	var d deque
	for i := uint64(0); i < 20000; i++ {
		d.push(mkU(i))
		if i >= 4 {
			d.popFront()
		}
	}
	if d.len() != 4 {
		t.Fatalf("len = %d, want 4", d.len())
	}
	if d.head > 8192 {
		t.Errorf("head = %d; compaction never ran", d.head)
	}
	if d.front().Seq != 20000-4 {
		t.Errorf("front seq wrong after compaction: %d", d.front().Seq)
	}
}

// Property: a deque behaves as a FIFO with tail truncation under arbitrary
// operation sequences (model-checked against a slice).
func TestDequeModelProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var d deque
		var model []*uop.UOp
		seq := uint64(0)
		for i := 0; i < int(steps); i++ {
			switch rng.Intn(3) {
			case 0:
				seq++
				u := mkU(seq)
				d.push(u)
				model = append(model, u)
			case 1:
				if len(model) > 0 {
					if d.popFront() != model[0] {
						return false
					}
					model = model[1:]
				}
			default:
				if len(model) > 0 {
					k := rng.Intn(len(model) + 1)
					d.truncFrom(k)
					model = model[:k]
				}
			}
			if d.len() != len(model) {
				return false
			}
			for j := range model {
				if d.at(j) != model[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEventRing(t *testing.T) {
	const size = 256
	rings := newEventRings(size)
	r := &rings[evExec]
	u := mkU(1)
	r.schedule(10, event{u: u, tag: 1})
	r.schedule(10, event{u: u, tag: 2})
	r.schedule(11, event{u: u, tag: 3})
	evs := r.take(10)
	if len(evs) != 2 || evs[0].tag != 1 || evs[1].tag != 2 {
		t.Fatalf("take(10) = %v", evs)
	}
	if len(r.take(10)) != 0 {
		t.Error("slot must be empty after take")
	}
	if len(r.take(11)) != 1 {
		t.Error("cycle 11 event lost")
	}
	// Slot reuse at +size.
	r.schedule(10+size, event{u: u, tag: 9})
	if evs := r.take(10 + size); len(evs) != 1 || evs[0].tag != 9 {
		t.Error("ring wrap-around broken")
	}
	// The kinds' rings share one slab but no slots.
	rings[evComplete].schedule(10, event{u: u, tag: 5})
	if len(r.take(10)) != 0 {
		t.Error("an evComplete event landed in the evExec ring")
	}
}
