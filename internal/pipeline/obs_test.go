package pipeline

import (
	"bytes"
	"testing"

	"loosesim/internal/obs"
	"loosesim/internal/workload"
)

// obsCfg returns a DRA machine with no warmup, so the measurement window
// equals the whole run and the event stream can be cross-checked against
// Counters exactly.
func obsCfg(t *testing.T, bench string) Config {
	t.Helper()
	wl, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DRAConfigRF(wl, 5)
	cfg.WarmupInstructions = 0
	cfg.MeasureInstructions = 40_000
	return cfg
}

func TestObservabilityDoesNotPerturb(t *testing.T) {
	cfg := obsCfg(t, "apsi")
	base := run(t, cfg)

	delays := obs.NewLoopDelays(0)
	var series []obs.Interval
	withObs := cfg
	withObs.Events = delays
	withObs.Intervals = obs.IntervalFunc(func(iv obs.Interval) { series = append(series, iv) })
	withObs.SampleInterval = 1_000
	probed := run(t, withObs)

	// The whole point of the layer: probes observe, never steer.
	if base.Counters != probed.Counters {
		t.Fatalf("enabling observability changed the simulation:\nbase   %+v\nprobed %+v",
			base.Counters, probed.Counters)
	}
	if base.TotalCycles != probed.TotalCycles || base.TotalRetired != probed.TotalRetired {
		t.Fatalf("whole-run totals diverged: %d/%d vs %d/%d",
			base.TotalCycles, base.TotalRetired, probed.TotalCycles, probed.TotalRetired)
	}

	// With zero warmup the event stream covers exactly the measurement
	// window, so per-loop event counts must equal the counters, and the
	// branch loop's summed delay must equal BranchResLatSum.
	c := probed.Counters
	checks := []struct {
		kind obs.EventKind
		want uint64
	}{
		{obs.EvBranchMispredict, c.Mispredicts},
		{obs.EvLoadMisspec, c.LoadMisspecs},
		{obs.EvDataReissue, c.DataReissues},
		{obs.EvTLBTrap, c.TLBMissTraps},
		{obs.EvMemOrderTrap, c.MemOrderTraps},
		{obs.EvOperandMiss, c.OperandMisses},
		{obs.EvOperandReissue, c.OperandReissues},
	}
	for _, ck := range checks {
		if got := delays.Count(ck.kind); got != ck.want {
			t.Errorf("%s events = %d, counter says %d", ck.kind, got, ck.want)
		}
	}
	if got := delays.CyclesLost(obs.EvBranchMispredict); got != c.BranchResLatSum {
		t.Errorf("branch loop cycles lost = %d, BranchResLatSum = %d", got, c.BranchResLatSum)
	}
	if delays.Count(obs.EvOperandReissue) == 0 {
		t.Error("apsi with DRA must produce operand-reissue events")
	}

	// The interval series must tile the run exactly: contiguous, indexed,
	// and summing to the whole-run totals.
	if len(series) == 0 {
		t.Fatal("no intervals emitted")
	}
	var retired uint64
	prevEnd := int64(0)
	for i, iv := range series {
		if iv.Index != i {
			t.Fatalf("interval %d has index %d", i, iv.Index)
		}
		if iv.StartCycle != prevEnd {
			t.Fatalf("interval %d starts at %d, previous ended at %d", i, iv.StartCycle, prevEnd)
		}
		if iv.Cycles() <= 0 {
			t.Fatalf("interval %d is empty: %+v", i, iv)
		}
		prevEnd = iv.EndCycle
		retired += iv.Retired
	}
	if prevEnd != probed.TotalCycles {
		t.Errorf("intervals end at cycle %d, run ended at %d", prevEnd, probed.TotalCycles)
	}
	if retired != probed.TotalRetired {
		t.Errorf("intervals retired %d, run retired %d", retired, probed.TotalRetired)
	}
}

func TestObservabilityDefaultInterval(t *testing.T) {
	cfg := obsCfg(t, "gcc")
	var series []obs.Interval
	cfg.Intervals = obs.IntervalFunc(func(iv obs.Interval) { series = append(series, iv) })
	// SampleInterval deliberately left 0: the default must apply.
	res := run(t, cfg)
	if len(series) == 0 {
		t.Fatal("no intervals with the default period")
	}
	for _, iv := range series[:len(series)-1] {
		if iv.Cycles() != DefaultSampleInterval {
			t.Fatalf("interval %d spans %d cycles, want default %d", iv.Index, iv.Cycles(), DefaultSampleInterval)
		}
	}
	if last := series[len(series)-1]; last.EndCycle != res.TotalCycles {
		t.Errorf("tail interval must be flushed at run end: %d vs %d", last.EndCycle, res.TotalCycles)
	}
}

func TestObservabilitySampleIntervalValidation(t *testing.T) {
	cfg := obsCfg(t, "gcc")
	cfg.SampleInterval = -5
	if _, err := New(cfg); err == nil {
		t.Error("negative SampleInterval must be rejected")
	}
}

func TestObservabilityWritersProduceParseableStreams(t *testing.T) {
	cfg := obsCfg(t, "swim")
	cfg.MeasureInstructions = 20_000

	var evBuf, ivBuf bytes.Buffer
	events := obs.NewRingWriter(&evBuf)
	intervals := obs.NewIntervalJSONL(&ivBuf)
	cfg.Events = events
	cfg.Intervals = intervals
	cfg.SampleInterval = 2_000
	run(t, cfg)

	if err := events.Flush(); err != nil {
		t.Fatalf("event stream: %v", err)
	}
	if err := intervals.Err(); err != nil {
		t.Fatalf("interval stream: %v", err)
	}
	if evBuf.Len() == 0 || bytes.Count(ivBuf.Bytes(), []byte{'\n'}) < 2 {
		t.Fatalf("streams suspiciously empty: events %d bytes, intervals %d bytes",
			evBuf.Len(), ivBuf.Len())
	}
}
