// Package snap is the deterministic binary codec under Machine
// checkpoints. It fixes three properties the snapshot layer needs and
// encoding/json cannot give:
//
//   - Byte stability. Every integer is fixed-width little-endian and
//     every variable-length field is length-prefixed, so equal state
//     encodes to equal bytes — the property the resume byte-identity
//     and content-addressing tests rely on.
//   - Hostility tolerance. Reader latches the first error and returns
//     zero values from then on; every count passes through Len with an
//     explicit bound. Corrupt or truncated bytes produce an error from
//     DecodeState, never a panic or a multi-gigabyte allocation.
//   - Tamper evidence. Seal stamps the container with a sha256 over
//     everything preceding it; Open rejects a flipped bit anywhere in
//     the payload before a decoder sees it. Begin and Writer.Seal build
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
	"encoding/hex"
	"errors"
	"fmt"
)

// ErrCorrupt is wrapped by every decode-side failure: truncation, a bad
// digest, an out-of-range count, trailing bytes. errors.Is(err, ErrCorrupt)
// identifies "the bytes are bad" as a class.
var ErrCorrupt = errors.New("snap: corrupt data")

// Writer accumulates a byte-stable encoding. The zero value is ready to
// use. Writers never fail: encoding in-memory state is infallible.
type Writer struct {
	buf []byte
	// lenAt is the offset of the payload length field of a container
	// started by Begin, or 0 for a plain writer.
	lenAt int
}

// Bytes returns the accumulated encoding. The slice aliases the writer's
// buffer; the caller must not keep writing afterwards.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends an int64 as its two's-complement uint64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// I32 appends an int32 as its two's-complement uint32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// Int appends an int as int64. The decoder side re-checks range, so
// platform width differences cannot corrupt a snapshot silently.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Len appends a slice/collection length as u32.
func (w *Writer) Len(n int) { w.U32(uint32(n)) }

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.Len(len(b))
	w.buf = append(w.buf, b...)
}

// U64s appends a length-prefixed []uint64.
func (w *Writer) U64s(s []uint64) {
	w.Len(len(s))
	for _, v := range s {
		w.U64(v)
	}
}

// I64s appends a length-prefixed []int64.
func (w *Writer) I64s(s []int64) {
	w.Len(len(s))
	for _, v := range s {
		w.I64(v)
	}
}

// Bools appends a length-prefixed []bool.
func (w *Writer) Bools(s []bool) {
	w.Len(len(s))
	for _, v := range s {
		w.Bool(v)
	}
}

// Reader decodes a Writer's output. The first failure latches: every
// subsequent call returns the zero value, and Err reports the cause.
// This keeps decoders linear — one error check at the end (or at each
// structural boundary) instead of one per field.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Rest returns the number of unread bytes (0 once an error latches).
func (r *Reader) Rest() int {
	if r.err != nil {
		return 0
	}
	return len(r.buf) - r.off
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// Failf latches a caller-raised validation failure. Restore code uses it
// to reject semantically invalid values — an index out of range, an enum
// past its last variant — with the same ErrCorrupt class as structural
// failures, so decoders keep their single-error-check shape.
func (r *Reader) Failf(format string, args ...any) { r.fail(format, args...) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf)-r.off < n {
		r.fail("truncated: need %d bytes at offset %d, have %d", n, r.off, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte and requires it to be exactly 0 or 1, so a bool
// round-trips to the same byte it was encoded from.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.fail("bool byte %d at offset %d", v, r.off-1)
		return false
	}
	return v == 1
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// I32 reads an int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// Int reads an int encoded by Writer.Int, rejecting values outside the
// platform int range (only reachable on 32-bit builds or corrupt data).
func (r *Reader) Int() int {
	v := r.I64()
	if int64(int(v)) != v {
		r.fail("int %d overflows platform int", v)
		return 0
	}
	return int(v)
}

// Len reads a count and bounds it by max. Every collection length in a
// snapshot goes through this, so corrupt bytes can never drive a huge
// allocation or an index out of range.
func (r *Reader) Len(max int) int {
	v := r.U32()
	if int64(v) > int64(max) {
		r.fail("length %d exceeds bound %d at offset %d", v, max, r.off-4)
		return 0
	}
	return int(v)
}

// Blob reads a length-prefixed byte slice of at most max bytes. The
// result is a copy: it stays valid after the reader's buffer is reused.
func (r *Reader) Blob(max int) []byte {
	n := r.Len(max)
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// U64s reads a length-prefixed []uint64 of at most max elements.
func (r *Reader) U64s(max int) []uint64 {
	n := r.Len(max)
	if r.err != nil {
		return nil
	}
	s := make([]uint64, n)
	for i := range s {
		s[i] = r.U64()
	}
	return s
}

// I64s reads a length-prefixed []int64 of at most max elements.
func (r *Reader) I64s(max int) []int64 {
	n := r.Len(max)
	if r.err != nil {
		return nil
	}
	s := make([]int64, n)
	for i := range s {
		s[i] = r.I64()
	}
	return s
}

// Bools reads a length-prefixed []bool of at most max elements.
func (r *Reader) Bools(max int) []bool {
	n := r.Len(max)
	if r.err != nil {
		return nil
	}
	s := make([]bool, n)
	for i := range s {
		s[i] = r.Bool()
	}
	return s
}

// Expect requires the remaining input to be fully consumed; decoders
// call it after the last field so trailing garbage is an error.
func (r *Reader) Expect() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		r.fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
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
func Begin(magic string, version uint32, meta []byte, payloadCap int) Writer {
	if len(magic) > magicLen {
		panic("snap: magic longer than 8 bytes")
	}
	if len(meta) > maxMeta {
		panic("snap: meta blob too large")
	}
	w := Writer{buf: make([]byte, 0, headerLen+len(meta)+8+payloadCap+sumLen)}
	var m [magicLen]byte
	copy(m[:], magic)
	w.buf = append(w.buf, m[:]...)
	w.U32(version)
	w.Blob(meta)
	w.lenAt = len(w.buf)
	w.U64(0) // the payload length, patched by Seal
	return w
}

// Seal finishes a container started by Begin: it fills in the payload
// length, appends the sha256 of everything before the sum, and returns
// the container. The writer must not be used afterwards.
func (w *Writer) Seal() []byte {
	if w.lenAt == 0 {
		panic("snap: Seal on a writer not started by Begin")
	}
	binary.LittleEndian.PutUint64(w.buf[w.lenAt:], uint64(len(w.buf)-w.lenAt-8))
	sum := sha256.Sum256(w.buf)
	w.buf = append(w.buf, sum[:]...)
	return w.buf
}

// Seal wraps payload in the versioned, sha256-stamped container; it is
// Begin, the payload, then Writer.Seal.
func Seal(magic string, version uint32, meta, payload []byte) []byte {
	w := Begin(magic, version, meta, len(payload))
	w.buf = append(w.buf, payload...)
	return w.Seal()
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
	r := NewReader(body[magicLen:])
	v := r.U32()
	if r.err == nil && v != version {
		return nil, nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, version)
	}
	meta = r.Blob(maxMeta)
	payLen := r.U64()
	if r.err == nil && payLen != uint64(r.Rest()) {
		r.fail("payload length %d, have %d bytes", payLen, r.Rest())
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	payload = body[len(body)-int(payLen):]
	return meta, payload, nil
}

// Digest returns the hex sha256 of data — the content address of a
// sealed checkpoint, used as a cache-key prefix.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
