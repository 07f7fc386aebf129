package fwd

import "loosesim/internal/snap"

// Sync encodes or decodes the forwarding buffer's mutable state:
// per-register completion cycles and the hit/miss statistics. depth and
// wbDelay are configuration, rebuilt by New; b must have been constructed
// by New with the snapshot's register count.
func (b *Buffer) Sync(c *snap.Codec) {
	c.I64s(b.completed)
	c.U64(&b.hits)
	c.U64(&b.misses)
}
