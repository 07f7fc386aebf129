package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"loosesim/internal/obs"
)

// intervalSeries builds n intervals with every field set to a distinct
// non-zero value. Fields are filled by reflection so a field added to
// obs.Interval is covered without touching this test; float values are
// quarters, which the CSV writer's %.6g prints exactly.
func intervalSeries(n int) []obs.Interval {
	series := make([]obs.Interval, n)
	for i := range series {
		v := reflect.ValueOf(&series[i]).Elem()
		for k := 0; k < v.NumField(); k++ {
			x := i*100 + k + 1
			f := v.Field(k)
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(x))
			case reflect.Uint64:
				f.SetUint(uint64(x))
			case reflect.Float64:
				f.SetFloat(float64(x) / 4)
			default:
				panic("intervalSeries: unhandled field kind " + f.Kind().String())
			}
		}
	}
	return series
}

// TestIntervalRoundTrip writes a series through both obs interval writers
// and requires readIntervals to return every field unchanged: the CSV
// schema lives in obs (header + Fprintf) and here (setField), and this is
// what keeps the two in step.
func TestIntervalRoundTrip(t *testing.T) {
	want := intervalSeries(3)
	var csvBuf, jsonlBuf bytes.Buffer
	c := obs.NewIntervalCSV(&csvBuf)
	j := obs.NewIntervalJSONL(&jsonlBuf)
	for _, iv := range want {
		c.Interval(iv)
		j.Interval(iv)
	}
	if c.Err() != nil || j.Err() != nil {
		t.Fatalf("writer errors: csv %v, jsonl %v", c.Err(), j.Err())
	}

	for name, data := range map[string][]byte{"csv": csvBuf.Bytes(), "jsonl": jsonlBuf.Bytes()} {
		got, err := readIntervals(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: readIntervals: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: read %d intervals, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: interval %d\n got %+v\nwant %+v", name, i, got[i], want[i])
			}
		}
	}
}

// TestIntervalCSVMissingColumn requires a CSV without a column the summary
// re-aggregates from to be rejected, not silently read as zeros.
func TestIntervalCSVMissingColumn(t *testing.T) {
	var buf bytes.Buffer
	c := obs.NewIntervalCSV(&buf)
	for _, iv := range intervalSeries(3) {
		c.Interval(iv)
	}
	header, rows, _ := strings.Cut(buf.String(), "\n")
	renamed := strings.Replace(header, ",op_crc,", ",op_crc_renamed,", 1)
	if renamed == header {
		t.Fatalf("header has no op_crc column: %s", header)
	}
	_, err := readIntervals(strings.NewReader(renamed + "\n" + rows))
	if err == nil || !strings.Contains(err.Error(), `"op_crc"`) {
		t.Fatalf("readIntervals without op_crc: err = %v, want a missing-column error naming op_crc", err)
	}
}

// TestReadEventsRebuildsTable feeds the same events to a LoopDelays
// directly and through obs.RingWriter's JSONL, and requires readEvents to
// rebuild an identical per-loop table.
func TestReadEventsRebuildsTable(t *testing.T) {
	direct := obs.NewLoopDelays(0)
	var buf bytes.Buffer
	w := obs.NewRingWriter(&buf, 4) // small ring: several batch flushes
	const n = 30
	for i := 0; i < n; i++ {
		e := obs.Event{
			Cycle:  int64(10 * i),
			Kind:   obs.EventKind(i % int(obs.NumEventKinds)),
			Thread: i % 2,
			Seq:    uint64(i),
			PC:     0x1000 + uint64(4*i),
			Delay:  int64(i % 7),
		}
		direct.Event(e)
		w.Event(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	rebuilt, count, err := readEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("readEvents decoded %d events, want %d", count, n)
	}
	if got, want := rebuilt.Table().String(), direct.Table().String(); got != want {
		t.Fatalf("rebuilt table differs\n got:\n%s\nwant:\n%s", got, want)
	}
}
