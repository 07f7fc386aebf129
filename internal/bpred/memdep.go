package bpred

// StoreWait is the 21264-style memory dependence predictor: one bit per
// (hashed) load PC, set when the load is caught violating memory order
// against an older store. A set bit makes the load wait at issue until all
// older stores have resolved their addresses. Bits are cleared periodically
// so stale training does not serialise loads forever.
type StoreWait struct {
	bits     []bool
	mask     uint64 // simlint:nosync geometry
	interval int64  // simlint:nosync configuration
	nextClr  int64

	trains, clears uint64
}

// NewStoreWait returns a predictor with the given table size (power of two)
// that clears itself every clearInterval cycles.
func NewStoreWait(entries int, clearInterval int64) *StoreWait {
	checkPow2(entries)
	if clearInterval < 1 {
		clearInterval = 1
	}
	return &StoreWait{
		bits:     make([]bool, entries),
		mask:     uint64(entries - 1),
		interval: clearInterval,
		nextClr:  clearInterval,
	}
}

func (s *StoreWait) index(pc uint64) uint64 { return (pc >> 2) & s.mask }

// ShouldWait reports whether the load at pc should wait for older stores.
func (s *StoreWait) ShouldWait(pc uint64) bool { return s.bits[s.index(pc)] }

// Train marks the load at pc as a violator.
func (s *StoreWait) Train(pc uint64) {
	s.bits[s.index(pc)] = true
	s.trains++
}

// Tick advances the predictor's clock; at each clear interval the table
// resets so loads get periodic second chances.
func (s *StoreWait) Tick(cycle int64) {
	if cycle < s.nextClr {
		return
	}
	for i := range s.bits {
		s.bits[i] = false
	}
	s.clears++
	s.nextClr = cycle + s.interval
}

// Trains returns the number of Train calls.
func (s *StoreWait) Trains() uint64 { return s.trains }

// Clears returns the number of table resets.
func (s *StoreWait) Clears() uint64 { return s.clears }
