package bpred

import "loosesim/internal/snap"

// syncCounters2 encodes or decodes a 2-bit-counter table one byte per
// entry, in place. Decoding rejects values the saturating arithmetic can
// never produce.
func syncCounters2(c *snap.Codec, t []counter2) {
	for i := range t {
		c.U8((*uint8)(&t[i]))
	}
	if c.Decoding() {
		for _, v := range t {
			if v > 3 {
				c.Failf("2-bit counter value %d", v)
				return
			}
		}
	}
}

// Sync encodes or decodes the bimodal predictor's counter table; b must
// have the snapshot's size.
func (b *Bimodal) Sync(c *snap.Codec) { syncCounters2(c, b.table) }

// Sync encodes or decodes the gshare predictor's counter table and
// global history register; g must have the snapshot's geometry.
func (g *GShare) Sync(c *snap.Codec) {
	syncCounters2(c, g.table)
	c.U64(&g.history)
	if c.Decoding() && g.history&^((1<<g.histLen)-1) != 0 {
		c.Failf("gshare history %#x exceeds %d bits", g.history, g.histLen)
	}
}

// Sync encodes or decodes the tournament predictor's histories and all
// three counter tables; t must have the snapshot's geometry.
func (t *Tournament) Sync(c *snap.Codec) {
	for i := range t.localHist {
		c.U16(&t.localHist[i])
	}
	syncCounters2(c, t.localPred)
	syncCounters2(c, t.globalPred)
	syncCounters2(c, t.choice)
	c.U64(&t.history)
	if !c.Decoding() {
		return
	}
	lhMask := uint16((1 << t.lhBits) - 1)
	for _, h := range t.localHist {
		if h&^lhMask != 0 {
			c.Failf("tournament local history %#x exceeds %d bits", h, t.lhBits)
			break
		}
	}
	if t.history&^((1<<t.histBits)-1) != 0 {
		c.Failf("tournament history %#x exceeds %d bits", t.history, t.histBits)
	}
}

// Sync encodes or decodes the perceptron predictor's weight matrix and
// history; p must have the snapshot's geometry. Weights beyond the 8-bit
// clamp and history values other than ±1 or 0 are corrupt.
func (p *Perceptron) Sync(c *snap.Codec) {
	for _, row := range p.weights {
		for i := range row {
			c.I16(&row[i])
		}
	}
	for i := range p.history {
		c.I8(&p.history[i])
	}
	if !c.Decoding() {
		return
	}
	for _, row := range p.weights {
		for _, wt := range row {
			if wt < -128 || wt > 127 {
				c.Failf("perceptron weight %d outside clamp", wt)
				return
			}
		}
	}
	for _, h := range p.history {
		if h != -1 && h != 0 && h != 1 {
			c.Failf("perceptron history value %d", h)
			return
		}
	}
}

// Sync encodes the static predictor's (single, configured) bit, so the
// payload self-checks; decoding requires the configured direction.
func (s *Static) Sync(c *snap.Codec) {
	taken := s.Taken
	c.Bool(&taken)
	if c.Decoding() && c.Err() == nil && taken != s.Taken {
		c.Failf("static predictor direction %v, configured %v", taken, s.Taken)
	}
}

// Sync encodes or decodes the BTB's tags, targets, valid bits, and
// statistics; b must have the snapshot's size.
func (b *BTB) Sync(c *snap.Codec) {
	c.U64s(b.tags)
	c.U64s(b.targets)
	c.Bools(b.valid)
	c.U64(&b.hits)
	c.U64(&b.misses)
}

// Sync encodes or decodes the store-wait predictor's bits, clear
// schedule, and statistics; s must have the snapshot's size.
func (s *StoreWait) Sync(c *snap.Codec) {
	c.Bools(s.bits)
	c.I64(&s.nextClr)
	c.U64(&s.trains)
	c.U64(&s.clears)
}
