package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestEventKindNamesAndParse(t *testing.T) {
	for k := EventKind(0); k < NumEventKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "event(") {
			t.Fatalf("kind %d has no name", k)
		}
		got, err := ParseEventKind(name)
		if err != nil || got != k {
			t.Errorf("ParseEventKind(%q) = %v, %v; want %v", name, got, err, k)
		}
	}
	if _, err := ParseEventKind("bogus"); err == nil {
		t.Error("ParseEventKind must reject unknown names")
	}
	if s := EventKind(200).String(); !strings.Contains(s, "200") {
		t.Errorf("out-of-range kind string = %q", s)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := Event{Cycle: 12345, Kind: EvOperandReissue, Thread: 1, Seq: 99, PC: 0xdeadbeef, Delay: 6}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"operand-reissue"`) {
		t.Fatalf("kind must marshal by name: %s", b)
	}
	var out Event
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
	if err := json.Unmarshal([]byte(`{"kind":"no-such-loop"}`), &out); err == nil {
		t.Error("unknown kind must fail to unmarshal")
	}
}

func TestRingWriterFlushesAllEvents(t *testing.T) {
	var buf bytes.Buffer
	w := NewRingWriter(&buf)
	const n = 2*ringBatch + 10 // two mid-run batch flushes plus a final partial one
	for i := 0; i < n; i++ {
		w.Event(Event{Cycle: int64(i), Kind: EvBranchMispredict, Delay: int64(i)})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("wrote %d lines, want %d", len(lines), n)
	}
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d unparseable: %v", i, err)
		}
		if e.Cycle != int64(i) {
			t.Fatalf("line %d out of order: cycle %d", i, e.Cycle)
		}
	}
}

// failAfter fails every write after the first n.
type failAfter struct {
	n int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestRingWriterLatchesError covers a mid-run failure: the first batch
// flush fails on its third record, and the error latches at once.
func TestRingWriterLatchesError(t *testing.T) {
	w := NewRingWriter(&failAfter{n: 2})
	for i := 0; i < ringBatch-1; i++ {
		w.Event(Event{Cycle: int64(i)})
	}
	if w.Err() != nil {
		t.Fatal("no write may happen before the ring fills")
	}
	w.Event(Event{Cycle: ringBatch}) // fills the ring: the batch flush fails
	if w.Err() == nil {
		t.Fatal("the failed batch flush must latch an error")
	}
	w.Event(Event{Cycle: ringBatch + 1}) // dropped silently
	if err := w.Flush(); err == nil {
		t.Fatal("Flush must report the latched error")
	}
}

// TestRingWriterFinalFlushLatchesError covers the end-of-run audit case:
// when the ring never fills mid-run, the first write happens inside the
// final Flush, and a failure there must both be returned and latch — this
// is the error cmd/loosim's verifyStreams turns into a nonzero exit.
func TestRingWriterFinalFlushLatchesError(t *testing.T) {
	w := NewRingWriter(&failAfter{n: 0}) // fewer events than a batch: no mid-run flush
	for i := 0; i < 5; i++ {
		w.Event(Event{Cycle: int64(i)})
	}
	if w.Err() != nil {
		t.Fatal("no write may happen before the final flush")
	}
	if err := w.Flush(); err == nil {
		t.Fatal("final-flush failure must be returned")
	}
	if w.Err() == nil {
		t.Fatal("final-flush failure must latch")
	}
	if err := w.Flush(); err == nil {
		t.Fatal("repeated Flush must keep reporting the latched error")
	}
}

func TestIntervalJSONLLatchesError(t *testing.T) {
	w := NewIntervalJSONL(&failAfter{n: 1})
	w.Interval(Interval{Index: 0})
	if w.Err() != nil {
		t.Fatal("first record must succeed")
	}
	w.Interval(Interval{Index: 1})
	if w.Err() == nil {
		t.Fatal("record write error must latch")
	}
	w.Interval(Interval{Index: 2}) // dropped, must not panic
}

func TestLoopDelaysAggregation(t *testing.T) {
	l := NewLoopDelays(0)
	for i := 0; i < 100; i++ {
		l.Event(Event{Kind: EvBranchMispredict, Delay: int64(10 + i%5)})
	}
	l.Event(Event{Kind: EvOperandMiss, Delay: 0})
	l.Event(Event{Kind: EventKind(250), Delay: 7}) // unknown: dropped

	if got := l.Count(EvBranchMispredict); got != 100 {
		t.Errorf("count = %d, want 100", got)
	}
	if got := l.MeanDelay(EvBranchMispredict); got != 12 {
		t.Errorf("mean delay = %v, want 12", got)
	}
	if got := l.P99(EvBranchMispredict); got != 14 {
		t.Errorf("p99 = %d, want 14", got)
	}
	if got := l.CyclesLost(EvBranchMispredict); got != 1200 {
		t.Errorf("cycles lost = %d, want 1200", got)
	}
	if got := l.CyclesLost(EvOperandMiss); got != 0 {
		t.Errorf("zero-delay events must not lose cycles, got %d", got)
	}
	if got := l.Total(); got != 101 {
		t.Errorf("total = %d, want 101", got)
	}

	table := l.Table().String()
	if !strings.Contains(table, "branch-mispredict") || !strings.Contains(table, "operand-miss") {
		t.Errorf("table missing rows:\n%s", table)
	}
	if strings.Contains(table, "tlb-trap") {
		t.Errorf("table must skip loops that never fired:\n%s", table)
	}
}

func TestIntervalJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewIntervalJSONL(&buf)
	for i := 0; i < 3; i++ {
		w.Interval(Interval{Index: i, StartCycle: int64(i) * 1000, EndCycle: int64(i+1) * 1000, Retired: 42})
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	for i := 0; i < 3; i++ {
		var iv Interval
		if err := dec.Decode(&iv); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if iv.Index != i || iv.Cycles() != 1000 || iv.Retired != 42 {
			t.Errorf("record %d corrupted: %+v", i, iv)
		}
	}
	var extra Interval
	if err := dec.Decode(&extra); err != io.EOF {
		t.Errorf("expected EOF after 3 records, got %v", err)
	}
}
