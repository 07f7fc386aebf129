package mem

import (
	"cmp"
	"fmt"
	"slices"
)

// TLB is a fully associative data TLB with LRU replacement. A TLB miss is
// the paper's memory-trap loop: recovery happens at the fetch stage, so the
// pipeline flushes and refetches.
//
// The state is entries (page tag, valid bit, last-use stamp), the access
// clock and the hit/miss counters; that is all Snapshot encodes. Two
// derived structures make a hit and a miss O(1): an open-addressed index
// from page to entry, and a list of entries in replacement order, which
// Restore rebuilds from the stamps. The list holds every invalid entry
// first, in index order, then the valid ones from the smallest stamp up,
// ties broken by index. Its head is therefore the entry a linear scan
// would evict — the lowest-index invalid entry, else the least recently
// used one — and an access keeps that order by moving its entry to the
// tail, since its new stamp is the largest.
type TLB struct {
	entries  []line
	pgShift  uint // simlint:noreset simlint:nosync derived from the page size at construction
	clock    uint64
	hits     uint64
	missesCt uint64

	// slots is the page index, linear probing at most half full: each
	// slot holds an entry number plus one, or 0 when empty. Only valid
	// entries are indexed.
	slots []int32 // simlint:nosync derived from entries by relink
	// prev and next link the replacement list. Node len(entries) is the
	// sentinel: next[sentinel] is the victim, prev[sentinel] the entry
	// used last.
	prev, next []int32 // simlint:nosync derived from entries by relink
}

// NewTLB returns a TLB with the given entry count and page size (power of
// two bytes).
func NewTLB(entries int, pageBytes int) *TLB {
	t := newTLB(entries, pageBytes)
	return &t
}

// newTLB builds the TLB by value, so a Hierarchy can hold one without a
// separate allocation.
func newTLB(entries int, pageBytes int) TLB {
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("mem: page size %d not a power of two", pageBytes))
	}
	sh := uint(0)
	for 1<<sh < pageBytes {
		sh++
	}
	nslots := 2
	for nslots < 2*entries {
		nslots <<= 1
	}
	// One backing array for all derived state: slots, then prev, then next.
	link := make([]int32, nslots+2*(entries+1))
	t := TLB{
		entries: make([]line, entries),
		pgShift: sh,
		slots:   link[:nslots:nslots],
		prev:    link[nslots : nslots+entries+1 : nslots+entries+1],
		next:    link[nslots+entries+1:],
	}
	_ = t.relink() // all entries are invalid: nothing to reject
	return t
}

// tlbHash spreads a page number over the index (Fibonacci hashing, high
// half of the product). Callers mask it to the index size.
func tlbHash(page uint64) uint { return uint((page * 0x9e3779b97f4a7c15) >> 33) }

// Access probes the TLB for the page containing addr, filling it on a miss.
// It returns whether the access hit.
//
// Indices are written so the compiler can prove them in range: probe
// positions are masked by len(slots)-1, and an index slot is decoded with
// one unsigned compare that both detects an empty slot and bounds the
// entry number.
func (t *TLB) Access(addr uint64) bool {
	t.clock++
	page := addr >> t.pgShift
	s, es, prev, next := t.slots, t.entries, t.prev, t.next
	m := uint(len(s) - 1)
	if len(s) == 0 || len(prev) <= len(es) || len(next) <= len(es) {
		panic("mem: TLB derived state does not match its entries")
	}
	i := tlbHash(page)
	e := int(s[i&m]) - 1
	for uint(e) < uint(len(es)) && es[e].tag != page {
		i++
		e = int(s[i&m]) - 1
	}
	sentinel := len(es)
	hit := uint(e) < uint(len(es))
	if hit {
		es[e].used = t.clock
		t.hits++
	} else {
		// Refill the list head. Its page, if any, leaves the index first,
		// which may move the empty slot the probe for page ends at.
		t.missesCt++
		e = int(next[sentinel])
		if old := &es[e]; old.valid {
			t.unindex(old.tag)
			for i = tlbHash(page); s[i&m] != 0; i++ {
			}
		}
		es[e] = line{tag: page, valid: true, used: t.clock}
		s[i&m] = int32(e + 1)
	}
	// Move e to the tail of the replacement list.
	if last := int(prev[sentinel]); last != e {
		p, n := prev[e], next[e]
		next[p], prev[n] = n, p
		prev[e], next[e] = int32(last), int32(sentinel)
		next[last], prev[sentinel] = int32(e), int32(e)
	}
	return hit
}

// unindex removes page from the index, if it is there. Later members of
// its probe run shift back into the hole, so lookups need no tombstones.
func (t *TLB) unindex(page uint64) {
	s, es := t.slots, t.entries
	m := uint(len(s) - 1)
	if len(s) == 0 {
		return
	}
	i := tlbHash(page)
	for {
		e := int(s[i&m]) - 1
		if uint(e) >= uint(len(es)) {
			return
		}
		if es[e].tag == page {
			break
		}
		i++
	}
	for j := i + 1; ; j++ {
		e := int(s[j&m]) - 1
		if uint(e) >= uint(len(es)) {
			break
		}
		// The member at j may fill the hole at i unless its home slot
		// lies cyclically in (i, j].
		if (j-tlbHash(es[e].tag))&m >= (j-i)&m {
			s[i&m] = s[j&m]
			i = j
		}
	}
	s[i&m] = 0
}

// relink rebuilds the index and the replacement list from entries. It
// reports a state no run of Access can produce: a page held by two valid
// entries, which the index cannot represent, or a valid entry stamped
// after the clock, which the list order cannot.
func (t *TLB) relink() error {
	n := int32(len(t.entries))
	last := n
	link := func(e int32) {
		t.prev[e], t.next[last] = last, e
		last = e
	}
	var valid []int32
	for e := range n {
		if t.entries[e].valid {
			valid = append(valid, e)
		} else {
			link(e)
		}
	}
	slices.SortStableFunc(valid, func(a, b int32) int {
		return cmp.Compare(t.entries[a].used, t.entries[b].used)
	})
	var err error
	clear(t.slots)
	m := uint(len(t.slots) - 1)
	for _, e := range valid {
		link(e)
		ln := &t.entries[e]
		if ln.used > t.clock && err == nil {
			err = fmt.Errorf("entry %d stamped %d, after clock %d", e, ln.used, t.clock)
		}
		i := tlbHash(ln.tag) & m
		for ; t.slots[i] != 0; i = (i + 1) & m {
			if d := t.slots[i] - 1; t.entries[d].tag == ln.tag && err == nil {
				err = fmt.Errorf("page %#x held by entries %d and %d", ln.tag, d, e)
			}
		}
		t.slots[i] = e + 1
	}
	link(n)
	return err
}

// Misses returns the number of TLB misses observed.
func (t *TLB) Misses() uint64 { return t.missesCt }

// MissRate returns the TLB miss rate.
func (t *TLB) MissRate() float64 {
	total := t.hits + t.missesCt
	if total == 0 {
		return 0
	}
	return float64(t.missesCt) / float64(total)
}
