package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// TestRoundTrip encodes one of every field kind and decodes it back.
func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(1<<62 + 12345)
	w.I64(-42)
	w.I32(-7)
	w.Int(123456789)
	w.Blob([]byte("payload"))
	w.U64s([]uint64{1, 2, 3})
	w.I64s([]int64{-1, 0, 1})
	w.Bools([]bool{true, false, true})

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<62+12345 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.I32(); got != -7 {
		t.Errorf("I32 = %d", got)
	}
	if got := r.Int(); got != 123456789 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Blob(64); !bytes.Equal(got, []byte("payload")) {
		t.Errorf("Blob = %q", got)
	}
	if got := r.U64s(8); len(got) != 3 || got[2] != 3 {
		t.Errorf("U64s = %v", got)
	}
	if got := r.I64s(8); len(got) != 3 || got[0] != -1 {
		t.Errorf("I64s = %v", got)
	}
	if got := r.Bools(8); len(got) != 3 || !got[2] {
		t.Errorf("Bools = %v", got)
	}
	if err := r.Expect(); err != nil {
		t.Fatalf("Expect: %v", err)
	}
}

// TestDeterminism: the same writes produce the same bytes.
func TestDeterminism(t *testing.T) {
	enc := func() []byte {
		var w Writer
		w.U64(99)
		w.Blob([]byte{1, 2, 3})
		w.Bools([]bool{true})
		return w.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("identical writes produced different bytes")
	}
}

// TestReaderLatchesErrors: after a failure every read returns zero and
// Err keeps the first cause.
func TestReaderLatchesErrors(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U64() // truncated
	first := r.Err()
	if first == nil {
		t.Fatal("expected truncation error")
	}
	if !errors.Is(first, ErrCorrupt) {
		t.Fatalf("error %v is not ErrCorrupt", first)
	}
	if got := r.U32(); got != 0 {
		t.Errorf("post-error U32 = %d, want 0", got)
	}
	if r.Err() != first { //nolint:errorlint // identity check on purpose
		t.Error("latched error was replaced")
	}
}

// TestLenBounds: a hostile count must error, not allocate.
func TestLenBounds(t *testing.T) {
	var w Writer
	w.U32(1 << 30) // claims a billion elements
	r := NewReader(w.Bytes())
	if got := r.Len(1024); got != 0 {
		t.Errorf("Len = %d, want 0", got)
	}
	if r.Err() == nil {
		t.Fatal("oversized length did not error")
	}
}

// TestBoolStrict: bool bytes other than 0/1 are corrupt (they would
// break re-encode byte-identity).
func TestBoolStrict(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

// TestExpectTrailing: leftover bytes after the last field are an error.
func TestExpectTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.U8()
	if err := r.Expect(); err == nil {
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

// TestDigestStable: equal containers digest equal; different payloads
// digest differently.
func TestDigestStable(t *testing.T) {
	a := Seal("LOOSNAP", 1, nil, []byte("x"))
	b := Seal("LOOSNAP", 1, nil, []byte("x"))
	c := Seal("LOOSNAP", 1, nil, []byte("y"))
	if Digest(a) != Digest(b) {
		t.Error("equal containers digest differently")
	}
	if Digest(a) == Digest(c) {
		t.Error("different payloads digest equal")
	}
}

// TestSealInPlaceMatchesLayout builds containers the in-place way —
// Begin, payload written through the Writer, Seal — for random payloads,
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
			w := Begin(magic, version, meta, hint)
			for _, b := range payload {
				w.U8(b)
			}
			if got := w.Seal(); !bytes.Equal(got, want) {
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
			t.Error("Seal on a plain Writer did not panic")
		}
	}()
	var w Writer
	w.U8(1)
	w.Seal()
}
