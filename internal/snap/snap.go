// Package snap is the deterministic binary codec under Machine
// checkpoints. It fixes three properties the snapshot layer needs and
// encoding/json cannot give:
//
//   - Byte stability. Every integer is fixed-width little-endian and
//     every variable-length field is length-prefixed, so equal state
//     encodes to equal bytes — the property the resume byte-identity
//     and content-addressing tests rely on.
//   - One field list. A Codec walks the encoding in either direction, so
//     each checkpointed type lists its fields once, in its Sync method,
//     and the encode and decode orders cannot drift apart.
//   - Hostility tolerance. A decoding Codec latches the first error and
//     yields zero values from then on; every count passes through Len
//     with an explicit bound. Corrupt or truncated bytes produce an
//     error, never a panic or a multi-gigabyte allocation.
//   - Tamper evidence. Seal stamps the container with a sha256 over
//     everything preceding it; Open rejects a flipped bit anywhere in
//     the payload before a decoder sees it. Begin and Codec.Seal build
//     the container in the payload's own buffer, so sealing copies
//     nothing.
//
// The container layout is:
//
//	magic   8 bytes  (ASCII, padded with NUL)
//	version u32      format version of the payload that follows
//	metaLen u32, meta     opaque caller bytes (config digest etc.)
//	payLen  u64, payload  the encoded state
//	sum     32 bytes sha256 of everything above
//
// Nothing may follow the sum: Open rejects trailing bytes so a
// checkpoint file is exactly one container.
package snap

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt is wrapped by every decode-side failure: truncation, a bad
// digest, an out-of-range count, trailing bytes. errors.Is(err, ErrCorrupt)
// identifies "the bytes are bad" as a class.
var ErrCorrupt = errors.New("snap: corrupt data")

// Codec walks a byte-stable encoding in either direction. Each
// checkpointed type lists its fields once, in a Sync(c *Codec) method,
// passing a pointer to each: encoding, a method appends the value;
// decoding, it overwrites the value with the next one read. The zero
// Codec encodes; NewDecoder returns one that decodes.
//
// Decoding latches the first failure: every later read yields the zero
// value, and Err reports the cause. This keeps Sync methods linear — one
// error check at the end (or at each structural boundary) instead of one
// per field. Encoding never fails: encoding in-memory state is
// infallible, and decode-side validation sits in `if c.Decoding()`
// blocks.
type Codec struct {
	buf []byte
	off int
	err error
	dec bool
	// lenAt is the offset of the payload length field of a container
	// started by Begin, or 0 for a plain encoder.
	lenAt int
}

// NewDecoder returns a Codec that decodes b.
func NewDecoder(b []byte) *Codec { return &Codec{buf: b, dec: true} }

// Decoding reports whether c decodes (overwrites the values it is
// handed) rather than encodes.
func (c *Codec) Decoding() bool { return c.dec }

// Bytes returns the accumulated encoding. The slice aliases the codec's
// buffer; the caller must not keep encoding afterwards.
func (c *Codec) Bytes() []byte { return c.buf }

// Err returns the latched decode error, if any.
func (c *Codec) Err() error { return c.err }

func (c *Codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// Failf latches a caller-raised validation failure. Sync methods use it
// to reject semantically invalid decoded values — an index out of range,
// an enum past its last variant — with the same ErrCorrupt class as
// structural failures.
func (c *Codec) Failf(format string, args ...any) { c.fail(format, args...) }

// take consumes n bytes of input, or latches a truncation error and
// returns nil.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.buf)-c.off < n {
		c.fail("truncated: need %d bytes at offset %d, have %d", n, c.off, len(c.buf)-c.off)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// The decode-side readers yield 0 once an error latches.

func (c *Codec) u8() uint8 {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *Codec) u16() uint16 {
	if b := c.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (c *Codec) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *Codec) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// U8 is one byte.
func (c *Codec) U8(p *uint8) {
	if c.dec {
		*p = c.u8()
		return
	}
	c.buf = append(c.buf, *p)
}

// I8 is an int8 as its two's-complement byte.
func (c *Codec) I8(p *int8) {
	if c.dec {
		*p = int8(c.u8())
		return
	}
	c.buf = append(c.buf, uint8(*p))
}

// Bool is one byte, 0 or 1. Decoding rejects any other byte, so a bool
// round-trips to the byte it was encoded from.
func (c *Codec) Bool(p *bool) {
	if !c.dec {
		v := uint8(0)
		if *p {
			v = 1
		}
		c.buf = append(c.buf, v)
		return
	}
	v := c.u8()
	if v > 1 {
		c.fail("bool byte %d at offset %d", v, c.off-1)
		v = 0
	}
	*p = v == 1
}

// U16 is a little-endian uint16.
func (c *Codec) U16(p *uint16) {
	if c.dec {
		*p = c.u16()
		return
	}
	c.buf = binary.LittleEndian.AppendUint16(c.buf, *p)
}

// I16 is an int16 as its two's-complement uint16.
func (c *Codec) I16(p *int16) {
	if c.dec {
		*p = int16(c.u16())
		return
	}
	c.buf = binary.LittleEndian.AppendUint16(c.buf, uint16(*p))
}

// U32 is a little-endian uint32.
func (c *Codec) U32(p *uint32) {
	if c.dec {
		*p = c.u32()
		return
	}
	c.buf = binary.LittleEndian.AppendUint32(c.buf, *p)
}

// I32 is an int32 as its two's-complement uint32.
func (c *Codec) I32(p *int32) {
	if c.dec {
		*p = int32(c.u32())
		return
	}
	c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*p))
}

// U64 is a little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if c.dec {
		*p = c.u64()
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
}

// I64 is an int64 as its two's-complement uint64.
func (c *Codec) I64(p *int64) {
	if c.dec {
		*p = int64(c.u64())
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*p))
}

// Int is an int as int64. Decoding rejects values outside the platform
// int range (only reachable on 32-bit builds or corrupt data), so width
// differences cannot corrupt a snapshot silently.
func (c *Codec) Int(p *int) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(int64(*p)))
		return
	}
	v := int64(c.u64())
	if int64(int(v)) != v {
		c.fail("int %d overflows platform int", v)
		v = 0
	}
	*p = int(v)
}

// Len is a collection length as u32. Encoding writes n and returns it;
// decoding returns the length read, bounded by max. Every decoded count
// passes through here, so corrupt bytes can never drive a huge
// allocation or an index out of range.
func (c *Codec) Len(n, max int) int {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(n))
		return n
	}
	v := c.u32()
	if int64(v) > int64(max) {
		c.fail("length %d exceeds bound %d at offset %d", v, max, c.off-4)
		return 0
	}
	return int(v)
}

// Fixed is the length of a collection whose size the geometry fixes:
// encoding writes n, decoding requires exactly n.
func (c *Codec) Fixed(n int) {
	if got := c.Len(n, n); got != n && c.err == nil {
		c.fail("length %d, want %d at offset %d", got, n, c.off-4)
	}
}

// Blob is a length-prefixed byte slice of at most max bytes. The decoded
// slice is a copy: it stays valid after the input buffer is reused.
func (c *Codec) Blob(p *[]byte, max int) {
	n := c.Len(len(*p), max)
	if !c.dec {
		c.buf = append(c.buf, *p...)
		return
	}
	*p = nil
	if b := c.take(n); b != nil {
		*p = append(make([]byte, 0, n), b...)
	}
}

// U64s is a fixed-length []uint64: its length, then each element,
// decoded in place.
func (c *Codec) U64s(s []uint64) {
	c.Fixed(len(s))
	for i := range s {
		c.U64(&s[i])
	}
}

// I64s is a fixed-length []int64, decoded in place.
func (c *Codec) I64s(s []int64) {
	c.Fixed(len(s))
	for i := range s {
		c.I64(&s[i])
	}
}

// Bools is a fixed-length []bool, decoded in place.
func (c *Codec) Bools(s []bool) {
	c.Fixed(len(s))
	for i := range s {
		c.Bool(&s[i])
	}
}

// Expect requires the input to be fully decoded; decoders call it after
// the last field so trailing garbage is an error.
func (c *Codec) Expect() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.buf) {
		c.fail("%d trailing bytes", len(c.buf)-c.off)
	}
	return c.err
}

// Container framing -----------------------------------------------------

const (
	magicLen = 8
	sumLen   = sha256.Size
	// headerLen is everything before meta: magic + version + metaLen.
	headerLen = magicLen + 4 + 4
	// maxMeta bounds the opaque meta blob; config digests are 64 bytes.
	maxMeta = 1 << 16
)

// Begin starts a sealed container in a single buffer: it writes the
// header and meta, reserves the payload length, and returns a Writer for
// the payload. payloadCap is the payload size the caller expects; the
// buffer is allocated once with room for it and the sum, and grows only
// if the payload outruns it. Seal finishes the container in place. magic
// must be at most 8 ASCII bytes; it is padded with NULs.
func Begin(magic string, version uint32, meta []byte, payloadCap int) Codec {
	if len(magic) > magicLen {
		panic("snap: magic longer than 8 bytes")
	}
	if len(meta) > maxMeta {
		panic("snap: meta blob too large")
	}
	c := Codec{buf: make([]byte, 0, headerLen+len(meta)+8+payloadCap+sumLen)}
	var m [magicLen]byte
	copy(m[:], magic)
	c.buf = append(c.buf, m[:]...)
	c.U32(&version)
	c.Blob(&meta, maxMeta)
	c.lenAt = len(c.buf)
	c.buf = append(c.buf, make([]byte, 8)...) // the payload length, patched by Seal
	return c
}

// Seal finishes a container started by Begin: it fills in the payload
// length, appends the sha256 of everything before the sum, and returns
// the container. The codec must not be used afterwards.
func (c *Codec) Seal() []byte {
	if c.lenAt == 0 {
		panic("snap: Seal on a codec not started by Begin")
	}
	binary.LittleEndian.PutUint64(c.buf[c.lenAt:], uint64(len(c.buf)-c.lenAt-8))
	sum := sha256.Sum256(c.buf)
	c.buf = append(c.buf, sum[:]...)
	return c.buf
}

// Seal wraps payload in the versioned, sha256-stamped container; it is
// Begin, the payload, then Codec.Seal.
func Seal(magic string, version uint32, meta, payload []byte) []byte {
	c := Begin(magic, version, meta, len(payload))
	c.buf = append(c.buf, payload...)
	return c.Seal()
}

// Open verifies the container framing and digest and returns the meta
// and payload sections. It checks, in order: minimum length, magic,
// version, internal lengths, then the sha256 over everything before the
// sum. The returned slices alias data.
func Open(data []byte, magic string, version uint32) (meta, payload []byte, err error) {
	if len(data) < headerLen+8+sumLen {
		return nil, nil, fmt.Errorf("%w: container too short (%d bytes)", ErrCorrupt, len(data))
	}
	var m [magicLen]byte
	copy(m[:], magic)
	if string(data[:magicLen]) != string(m[:]) {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:magicLen])
	}
	body, sum := data[:len(data)-sumLen], data[len(data)-sumLen:]
	got := sha256.Sum256(body)
	if got != [sumLen]byte(sum) {
		return nil, nil, fmt.Errorf("%w: sha256 mismatch", ErrCorrupt)
	}
	c := NewDecoder(body[magicLen:])
	var v uint32
	c.U32(&v)
	if c.err == nil && v != version {
		return nil, nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, version)
	}
	c.Blob(&meta, maxMeta)
	var payLen uint64
	c.U64(&payLen)
	if rest := len(c.buf) - c.off; c.err == nil && payLen != uint64(rest) {
		c.fail("payload length %d, have %d bytes", payLen, rest)
	}
	if c.err != nil {
		return nil, nil, c.err
	}
	payload = body[len(body)-int(payLen):]
	return meta, payload, nil
}
