package mem

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"loosesim/internal/snap"
)

// linearTLB is the reference model: the TLB as a linear scan, exactly as
// it was before the index and replacement list. Every access scans for
// the page, and a miss scans again for the victim — the lowest-index
// invalid entry, else the smallest stamp with the lowest index winning a
// tie.
type linearTLB struct {
	entries  []line
	pgShift  uint
	clock    uint64
	hits     uint64
	missesCt uint64
}

func (t *linearTLB) Access(addr uint64) bool {
	t.clock++
	page := addr >> t.pgShift
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].tag == page {
			t.entries[i].used = t.clock
			t.hits++
			return true
		}
	}
	t.missesCt++
	victim := 0
	for i := range t.entries {
		if !t.entries[i].valid {
			victim = i
			break
		}
		if t.entries[i].used < t.entries[victim].used {
			victim = i
		}
	}
	t.entries[victim] = line{tag: page, valid: true, used: t.clock}
	return false
}

const testPageShift = 13 // 8 KB pages, the default geometry

func newLinearTLB(n int) *linearTLB {
	return &linearTLB{entries: make([]line, n), pgShift: testPageShift}
}

// sameTLB fails unless got holds exactly the reference model's state.
func sameTLB(t *testing.T, step int, ref *linearTLB, got *TLB) {
	t.Helper()
	if !slices.Equal(ref.entries, got.entries) {
		for i := range ref.entries {
			if ref.entries[i] != got.entries[i] {
				t.Fatalf("step %d: entry %d = %+v, linear scan has %+v", step, i, got.entries[i], ref.entries[i])
			}
		}
	}
	if ref.clock != got.clock || ref.hits != got.hits || ref.missesCt != got.missesCt {
		t.Fatalf("step %d: clock/hits/misses = %d/%d/%d, linear scan has %d/%d/%d",
			step, got.clock, got.hits, got.missesCt, ref.clock, ref.hits, ref.missesCt)
	}
}

// roundTrip encodes t and decodes the bytes into a fresh TLB of the
// same geometry.
func roundTrip(t *testing.T, tlb *TLB) *TLB {
	t.Helper()
	var enc snap.Codec
	tlb.Sync(&enc)
	fresh := NewTLB(len(tlb.entries), 1<<tlb.pgShift)
	c := snap.NewDecoder(enc.Bytes())
	fresh.Sync(c)
	if err := c.Expect(); err != nil {
		t.Fatalf("restore of a snapshot: %v", err)
	}
	return fresh
}

// restoreState encodes a hand-built state the way Sync does and decodes
// it into a fresh TLB, returning the decoder's error.
func restoreState(entries []line, clock, hits, misses uint64) (*TLB, error) {
	var enc snap.Codec
	enc.Fixed(len(entries))
	syncLines(&enc, entries)
	enc.U64(&clock)
	enc.U64(&hits)
	enc.U64(&misses)
	tlb := NewTLB(len(entries), 1<<testPageShift)
	c := snap.NewDecoder(enc.Bytes())
	tlb.Sync(c)
	return tlb, c.Expect()
}

// pageStream draws n accesses over span pages: mostly a walk with short
// reuse, sometimes a jump anywhere in the span.
func pageStream(rng *rand.Rand, n, span int) []uint64 {
	addrs := make([]uint64, n)
	page := 0
	for i := range addrs {
		switch r := rng.Intn(10); {
		case r < 5: // stay on the page
		case r < 8:
			page = (page + 1 + rng.Intn(3)) % span
		default:
			page = rng.Intn(span)
		}
		addrs[i] = uint64(page)<<testPageShift | uint64(rng.Intn(1<<testPageShift))
	}
	return addrs
}

// drive runs both models over addrs, comparing after every access and
// replacing the indexed TLB with a snapshot round trip of itself at
// random points.
func drive(t *testing.T, rng *rand.Rand, ref *linearTLB, got *TLB, addrs []uint64) *TLB {
	t.Helper()
	for step, a := range addrs {
		if want, have := ref.Access(a), got.Access(a); want != have {
			t.Fatalf("step %d: page %#x hit=%v, linear scan says %v", step, a>>testPageShift, have, want)
		}
		sameTLB(t, step, ref, got)
		if rng.Intn(200) == 0 {
			got = roundTrip(t, got)
			sameTLB(t, step, ref, got)
		}
	}
	return got
}

// handState builds a reachable-looking state: invalid holes at random
// indices, distinct pages in the valid entries, stamps from a small range
// so that ties are common, and a clock at or past every stamp.
func handState(rng *rand.Rand, n, span int) (entries []line, clock uint64) {
	entries = make([]line, n)
	pages := rng.Perm(max(span, n))
	for i := range entries {
		// Invalid entries keep whatever tag and stamp they held.
		entries[i] = line{tag: uint64(rng.Intn(span)), used: uint64(rng.Intn(1 << 20))}
		if rng.Intn(4) != 0 {
			entries[i] = line{tag: uint64(pages[i]), valid: true, used: uint64(rng.Intn(n/2 + 2))}
			clock = max(clock, entries[i].used)
		}
	}
	return entries, clock + uint64(rng.Intn(3))
}

func TestTLBMatchesLinearScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 128} {
		for _, mult := range []float64{0.5, 1, 2, 4, 16} {
			span := max(1, int(float64(n)*mult))
			rng := rand.New(rand.NewSource(int64(n*1000 + span)))
			ref, got := newLinearTLB(n), NewTLB(n, 1<<testPageShift)
			got = drive(t, rng, ref, got, pageStream(rng, 4000, span))

			for trial := 0; trial < 4; trial++ {
				entries, clock := handState(rng, n, span)
				hits, misses := uint64(rng.Intn(100)), uint64(rng.Intn(100))
				got, err := restoreState(entries, clock, hits, misses)
				if err != nil {
					t.Fatalf("n=%d span=%d: restoring a hand-built state: %v", n, span, err)
				}
				ref := &linearTLB{entries: slices.Clone(entries), pgShift: testPageShift, clock: clock, hits: hits, missesCt: misses}
				sameTLB(t, -1, ref, got)
				drive(t, rng, ref, got, pageStream(rng, 1000, span))
			}
		}
	}
}

func TestTLBRestoreRejectsRepeatedPage(t *testing.T) {
	entries := []line{
		{tag: 7, valid: true, used: 1},
		{tag: 9, valid: true, used: 2},
		{tag: 7, valid: true, used: 3},
	}
	if _, err := restoreState(entries, 3, 0, 3); !errors.Is(err, snap.ErrCorrupt) {
		t.Errorf("page held by two valid entries: err = %v, want snap.ErrCorrupt", err)
	}
	// An invalid entry's stale tag is no second copy.
	entries[2].valid = false
	if _, err := restoreState(entries, 3, 0, 3); err != nil {
		t.Errorf("repeated tag in an invalid entry: %v", err)
	}
	// A stamp after the clock cannot come from Access either.
	if _, err := restoreState(entries, 1, 0, 3); !errors.Is(err, snap.ErrCorrupt) {
		t.Errorf("stamp after the clock: err = %v, want snap.ErrCorrupt", err)
	}
}

// FuzzTLBMatchesLinearScan drives both models from fuzzer bytes: n sizes
// the TLB, state (two bytes an entry) hand-builds the starting state, and
// each ops byte is one access — its top seven bits pick the page, its low
// bit asks for a snapshot round trip afterwards. A state that repeats a
// page among valid entries must be rejected; every other state must
// restore and then track the linear scan exactly.
func FuzzTLBMatchesLinearScan(f *testing.F) {
	f.Add(uint8(4), []byte{}, []byte{0, 2, 4, 6, 8, 10, 2, 12, 1})
	f.Add(uint8(3), []byte{0, 0, 5, 1, 6, 1}, []byte{10, 12, 14, 10, 16, 18})
	f.Fuzz(func(t *testing.T, n uint8, state, ops []byte) {
		entries := make([]line, 1+int(n%64))
		var clock uint64
		seen := map[uint64]bool{}
		repeated := false
		for i := range entries {
			if 2*i+1 >= len(state) {
				break
			}
			page, stamp := state[2*i], state[2*i+1]
			if page == 0 {
				entries[i] = line{tag: uint64(stamp), used: uint64(stamp)}
				continue
			}
			entries[i] = line{tag: uint64(page), valid: true, used: uint64(stamp % 8)}
			clock = max(clock, entries[i].used)
			repeated = repeated || seen[uint64(page)]
			seen[uint64(page)] = true
		}
		got, err := restoreState(entries, clock, 0, 0)
		if repeated {
			if !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("state repeating a page restored with err = %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("restoring a valid state: %v", err)
		}
		ref := &linearTLB{entries: slices.Clone(entries), pgShift: testPageShift, clock: clock}
		for step, b := range ops {
			a := uint64(b>>1) << testPageShift
			if want, have := ref.Access(a), got.Access(a); want != have {
				t.Fatalf("step %d: page %d hit=%v, linear scan says %v", step, b>>1, have, want)
			}
			sameTLB(t, step, ref, got)
			if b&1 == 1 {
				got = roundTrip(t, got)
				sameTLB(t, step, ref, got)
			}
		}
	})
}
