package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// fields holds one of every field kind the codec has.
type fields struct {
	u8    uint8
	i8    int8
	t, f  bool
	u16   uint16
	i16   int16
	u32   uint32
	u64   uint64
	i64   int64
	i32   int32
	n     int
	blob  []byte
	u64s  []uint64
	i64s  []int64
	bools []bool
}

// sync lists every field once; the fixed-length slices must be sized
// before decoding.
func (f *fields) sync(c *Codec) {
	c.U8(&f.u8)
	c.I8(&f.i8)
	c.Bool(&f.t)
	c.Bool(&f.f)
	c.U16(&f.u16)
	c.I16(&f.i16)
	c.U32(&f.u32)
	c.U64(&f.u64)
	c.I64(&f.i64)
	c.I32(&f.i32)
	c.Int(&f.n)
	c.Blob(&f.blob, 64)
	c.U64s(f.u64s)
	c.I64s(f.i64s)
	c.Bools(f.bools)
}

// TestRoundTrip encodes one of every field kind and decodes it back.
func TestRoundTrip(t *testing.T) {
	in := fields{
		u8: 0xab, i8: -3, t: true, u16: 0xbeef, i16: -300, u32: 0xdeadbeef,
		u64: 1<<62 + 12345, i64: -42, i32: -7, n: 123456789,
		blob: []byte("payload"), u64s: []uint64{1, 2, 3},
		i64s: []int64{-1, 0, 1}, bools: []bool{true, false, true},
	}
	var enc Codec
	in.sync(&enc)

	got := fields{u64s: make([]uint64, 3), i64s: make([]int64, 3), bools: make([]bool, 3)}
	dec := NewDecoder(enc.Bytes())
	got.sync(dec)
	if err := dec.Expect(); err != nil {
		t.Fatalf("Expect: %v", err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, in)
	}

	// The encoding is the fixed-width little-endian layout, field by field.
	var want []byte
	want = append(want, 0xab, 0xfd, 1, 0)
	want = binary.LittleEndian.AppendUint16(want, 0xbeef)
	want = binary.LittleEndian.AppendUint16(want, 0xfed4)
	want = binary.LittleEndian.AppendUint32(want, 0xdeadbeef)
	want = binary.LittleEndian.AppendUint64(want, 1<<62+12345)
	want = binary.LittleEndian.AppendUint64(want, 0xffffffffffffffd6)
	want = binary.LittleEndian.AppendUint32(want, 0xfffffff9)
	want = binary.LittleEndian.AppendUint64(want, 123456789)
	want = binary.LittleEndian.AppendUint32(want, 7)
	want = append(want, "payload"...)
	want = binary.LittleEndian.AppendUint32(want, 3)
	for _, v := range in.u64s {
		want = binary.LittleEndian.AppendUint64(want, v)
	}
	want = binary.LittleEndian.AppendUint32(want, 3)
	for _, v := range in.i64s {
		want = binary.LittleEndian.AppendUint64(want, uint64(v))
	}
	want = binary.LittleEndian.AppendUint32(want, 3)
	want = append(want, 1, 0, 1)
	if !bytes.Equal(enc.Bytes(), want) {
		t.Fatalf("encoding % x\nwant     % x", enc.Bytes(), want)
	}
}

// TestEncodeLeavesValues: encoding reads the fields it is handed and
// never writes them, so snapshotting a machine cannot race its readers.
func TestEncodeLeavesValues(t *testing.T) {
	in := fields{t: true, n: -9, blob: []byte{}, u64s: []uint64{4}}
	before := in
	var c Codec
	in.sync(&c)
	if c.Decoding() || !reflect.DeepEqual(in, before) {
		t.Fatalf("encoding changed its input: %+v, was %+v", in, before)
	}
}

// TestDeterminism: the same fields produce the same bytes.
func TestDeterminism(t *testing.T) {
	enc := func() []byte {
		f := fields{u64: 99, blob: []byte{1, 2, 3}, bools: []bool{true}}
		var c Codec
		f.sync(&c)
		return c.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("identical fields produced different bytes")
	}
}

// TestReaderLatchesErrors: after a failure every read yields zero and
// Err keeps the first cause.
func TestReaderLatchesErrors(t *testing.T) {
	c := NewDecoder([]byte{1, 2})
	v64 := uint64(7)
	c.U64(&v64) // truncated
	first := c.Err()
	if first == nil {
		t.Fatal("expected truncation error")
	}
	if !errors.Is(first, ErrCorrupt) {
		t.Fatalf("error %v is not ErrCorrupt", first)
	}
	if v64 != 0 {
		t.Errorf("truncated U64 = %d, want 0", v64)
	}
	v32 := uint32(7)
	if c.U32(&v32); v32 != 0 {
		t.Errorf("post-error U32 = %d, want 0", v32)
	}
	if c.Err() != first { //nolint:errorlint // identity check on purpose
		t.Error("latched error was replaced")
	}
}

// TestLenBounds: a hostile count must error, not allocate.
func TestLenBounds(t *testing.T) {
	var enc Codec
	enc.Len(1<<30, 1<<30) // claims a billion elements
	c := NewDecoder(enc.Bytes())
	if got := c.Len(0, 1024); got != 0 {
		t.Errorf("Len = %d, want 0", got)
	}
	if c.Err() == nil {
		t.Fatal("oversized length did not error")
	}

	// A fixed-length collection rejects any other length, shorter too.
	var short Codec
	short.U64s([]uint64{1, 2})
	c = NewDecoder(short.Bytes())
	c.U64s(make([]uint64, 3))
	if !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatalf("short fixed-length slice: err %v", c.Err())
	}
}

// TestBoolStrict: bool bytes other than 0/1 are corrupt (they would
// break re-encode byte-identity).
func TestBoolStrict(t *testing.T) {
	c := NewDecoder([]byte{2})
	v := true
	c.Bool(&v)
	if c.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
	if v {
		t.Error("rejected bool decoded as true")
	}
}

// TestExpectTrailing: leftover bytes after the last field are an error.
func TestExpectTrailing(t *testing.T) {
	c := NewDecoder([]byte{1, 2, 3})
	var v uint8
	c.U8(&v)
	if err := c.Expect(); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestContainer seals and opens a payload, then flips every byte one at
// a time: each flip must be rejected.
func TestContainer(t *testing.T) {
	meta := []byte("cfg-digest")
	payload := []byte("machine state bytes")
	data := Seal("LOOSNAP", 3, meta, payload)

	gotMeta, gotPay, err := Open(data, "LOOSNAP", 3)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(gotMeta, meta) || !bytes.Equal(gotPay, payload) {
		t.Fatalf("Open returned meta=%q payload=%q", gotMeta, gotPay)
	}

	if _, _, err := Open(data, "LOOSNAP", 4); err == nil {
		t.Error("wrong version accepted")
	}
	if _, _, err := Open(data, "OTHERMAG", 3); err == nil {
		t.Error("wrong magic accepted")
	}
	if _, _, err := Open(append(append([]byte{}, data...), 0), "LOOSNAP", 3); err == nil {
		t.Error("trailing byte accepted")
	}
	for i := range data {
		mut := append([]byte{}, data...)
		mut[i] ^= 0x40
		if _, _, err := Open(mut, "LOOSNAP", 3); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
	for cut := 0; cut < len(data); cut += 7 {
		if _, _, err := Open(data[:cut], "LOOSNAP", 3); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// TestDigestStable: Seal is deterministic, so equal inputs seal to
// byte-identical containers.
func TestDigestStable(t *testing.T) {
	a := Seal("LOOSNAP", 1, nil, []byte("x"))
	b := Seal("LOOSNAP", 1, nil, []byte("x"))
	if !bytes.Equal(a, b) {
		t.Error("equal inputs sealed to different containers")
	}
}

// TestSealInPlaceMatchesLayout builds containers the in-place way —
// Begin, payload written through the Codec, Seal — for random payloads,
// with the capacity hint too small, exact and too large, and checks each
// against the layout assembled by hand: magic | version | meta | length |
// payload | sha256. Seal over the same payload must give the same bytes.
func TestSealInPlaceMatchesLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 200; trial++ {
		magic := "LOOMACH"[:rng.Intn(8)]
		version := rng.Uint32()
		meta := make([]byte, rng.Intn(80))
		payload := make([]byte, rng.Intn(5000))
		rng.Read(meta)
		rng.Read(payload)

		var want []byte
		want = append(want, magic...)
		want = append(want, make([]byte, 8-len(magic))...)
		want = binary.LittleEndian.AppendUint32(want, version)
		want = binary.LittleEndian.AppendUint32(want, uint32(len(meta)))
		want = append(want, meta...)
		want = binary.LittleEndian.AppendUint64(want, uint64(len(payload)))
		want = append(want, payload...)
		sum := sha256.Sum256(want)
		want = append(want, sum[:]...)

		for _, hint := range []int{0, len(payload), 2*len(payload) + 1} {
			c := Begin(magic, version, meta, hint)
			for _, b := range payload {
				c.U8(&b)
			}
			if got := c.Seal(); !bytes.Equal(got, want) {
				t.Fatalf("trial %d, hint %d: in-place container differs from the hand-built layout", trial, hint)
			}
		}
		if got := Seal(magic, version, meta, payload); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: Seal differs from the hand-built layout", trial)
		}
		gotMeta, gotPayload, err := Open(want, magic, version)
		if err != nil || !bytes.Equal(gotMeta, meta) || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("trial %d: Open of the hand-built layout: %v", trial, err)
		}
	}
}

func TestSealWithoutBeginPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Seal on a plain Codec did not panic")
		}
	}()
	var c Codec
	b := uint8(1)
	c.U8(&b)
	c.Seal()
}
