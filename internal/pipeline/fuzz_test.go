package pipeline

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"loosesim/internal/workload"
)

// fuzzCfg is the fixed machine the fuzzer restores against. It must stay
// byte-for-byte stable across runs or the committed corpus goes stale:
// the seed snapshots in testdata/fuzz were taken under exactly this
// config (see corpus_gen_test.go to regenerate them).
func fuzzCfg() (Config, error) {
	wl, err := workload.ByName("gcc")
	if err != nil {
		return Config{}, err
	}
	cfg := DefaultConfig(wl)
	cfg.WarmupInstructions = 1_000
	cfg.MeasureInstructions = 3_000
	// Tiny caches and tables keep the seed snapshots small enough to
	// commit — the codec walks the same encode/decode paths regardless of
	// array sizes.
	cfg.Mem.L1.SizeBytes = 4 << 10
	cfg.Mem.L2.SizeBytes = 16 << 10
	cfg.Mem.L2.Ways = 4
	cfg.BTBEntries = 64
	cfg.StoreWaitSize = 64
	cfg.MaxInFlight = 32
	cfg.IQEntries = 32
	cfg.NumPhysRegs = 128
	return cfg, nil
}

// FuzzSnapshotRoundTrip fuzzes the snapshot codec's decode path with
// arbitrary bytes. The contract: Restore either errors — it must never
// panic, whatever the input — or accepts, in which case re-encoding the
// restored machine must reproduce the input exactly (decode(encode(s)) ==
// s, and no second preimage sneaks past the checksum).
func FuzzSnapshotRoundTrip(f *testing.F) {
	cfg, err := fuzzCfg()
	if err != nil {
		f.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	fresh, err := m.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fresh)
	if err := m.RunUntilRetired(context.Background(), 2_000); err != nil {
		f.Fatal(err)
	}
	mid, err := m.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mid)
	// Structured near-misses: a flipped payload byte, a torn tail, a bare
	// header — the shapes a broken cache or torn write would produce.
	mut := bytes.Clone(mid)
	mut[len(mut)/2] ^= 0xff
	f.Add(mut)
	f.Add(mid[:len(mid)/3])
	f.Add([]byte("LOOMACH\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Restore(cfg, data)
		if err != nil {
			return // rejected; the harness itself catches any panic
		}
		again, err := m.Snapshot()
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decode(encode) is not the identity: %d bytes in, %d bytes out", len(data), len(again))
		}
	})
}

// fuzzWorkloads are the workloads FuzzConfig runs: an integer and an FP
// code on one thread, and an SMT pair of each kind.
var fuzzWorkloads = [...]string{"gcc", "swim", "m88-comp", "apsi-swim"}

// fuzzPredictors are the predictor kinds FuzzConfig picks from: every kind
// Validate accepts, the empty default, and one it rejects.
var fuzzPredictors = [...]PredictorKind{PredTournament, PredBimodal, PredGShare, PredStatic, PredPerceptron, "", "bogus"}

const (
	// fuzzMeasure is how many instructions each FuzzConfig run retires.
	fuzzMeasure = 2_000
	// fuzzBudget bounds a FuzzConfig run, in cycles: an IPC of 0.01.
	fuzzBudget = 200_000
	// fuzzChunk is how many instructions retire between two checks of
	// the machine's laws.
	fuzzChunk = 64
	// fuzzStall is the most cycles a live machine goes without retiring.
	// The fuzzer's latencies are at most 127 cycles and the event horizon
	// at most 1023, so the oldest instruction finishes well inside it; a
	// run that ends its budget stalled longer than this has deadlocked.
	fuzzStall = 50_000
)

// FuzzConfig drives the integer fields Validate checks: widths, window
// sizes, latencies, predictor and store-wait geometry, the policy enums,
// the predictor kind and the DRA switch, over a single-thread or SMT
// workload. A config that Validate accepts must run ~2k instructions to
// the end or stop on ErrCycleBudget, still retiring, with the machine's
// conservation laws and the retired stream intact throughout. Nothing may
// panic. The widths and latencies are 8-bit and the sizes 16-bit so that
// every config the fuzzer builds fits in memory.
func FuzzConfig(f *testing.F) {
	for wl := range fuzzWorkloads {
		for _, dra := range []bool{false, true} {
			// The paper's machine, with and without the DRA.
			f.Add(uint8(wl), dra, int8(8), int8(8), int8(8), int16(128), int8(8), int16(256), int16(512),
				int8(5), int8(5), int8(3), int8(3), int8(1), int8(2), int8(9), int8(4), int8(3),
				int16(4096), int16(1024), int16(30), int8(0), int8(0), uint8(0))
		}
	}
	// A one-wide machine with a tiny window, the refetch and blind
	// policies, and a 2-cluster DRA.
	f.Add(uint8(2), true, int8(1), int8(1), int8(1), int16(4), int8(2), int16(8), int16(160),
		int8(1), int8(1), int8(1), int8(1), int8(1), int8(0), int8(1), int8(1), int8(1),
		int16(1), int16(1), int16(0), int8(1), int8(1), uint8(1))
	// Long latencies, the stall and conservative policies, and the
	// largest tables.
	f.Add(uint8(1), false, int8(127), int8(3), int8(127), int16(32767), int8(127), int16(1024), int16(2048),
		int8(127), int8(127), int8(127), int8(127), int8(127), int8(127), int8(127), int8(127), int8(127),
		int16(16384), int16(16384), int16(500), int8(2), int8(2), uint8(4))

	f.Fuzz(func(t *testing.T, wl uint8, dra bool, fetch, rename, retire int8, iq int16, clusters int8,
		inflight, physRegs int16, decIQ, iqEx, regRead, feedback, branchFB, evict, fwd, wb, sfl int8,
		storeWait, btb, tlbRefill int16, load, memDep int8, pred uint8) {
		w, err := workload.ByName(fuzzWorkloads[int(wl)%len(fuzzWorkloads)])
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(w)
		cfg.UseDRA = dra
		cfg.FetchWidth, cfg.RenameWidth, cfg.RetireWidth = int(fetch), int(rename), int(retire)
		cfg.IQEntries, cfg.Clusters, cfg.DRA.Clusters = int(iq), int(clusters), int(clusters)
		cfg.MaxInFlight, cfg.NumPhysRegs = int(inflight), int(physRegs)
		cfg.DecIQLat, cfg.IQExLat, cfg.RegReadLat = int(decIQ), int(iqEx), int(regRead)
		cfg.FeedbackDelay, cfg.BranchFBDelay, cfg.IQEvictDelay = int(feedback), int(branchFB), int(evict)
		cfg.FwdDepth, cfg.WBDelay, cfg.StoreForwardLat = int(fwd), int(wb), int(sfl)
		cfg.StoreWaitSize, cfg.BTBEntries, cfg.TLBRefill = int(storeWait), int(btb), int(tlbRefill)
		cfg.LoadPolicy, cfg.MemDep = LoadRecovery(load), MemDepPolicy(memDep)
		cfg.Predictor = fuzzPredictors[int(pred)%len(fuzzPredictors)]
		cfg.WarmupInstructions, cfg.MeasureInstructions = 0, fuzzMeasure
		cfg.CycleBudget = fuzzBudget
		if cfg.Validate() != nil {
			return
		}

		law, traced := newStreamLaw(cfg)
		m, err := New(traced)
		if err != nil {
			t.Fatalf("New rejects a config Validate accepts: %v", err)
		}
		law.attach(m)
		for m.Retired() < fuzzMeasure {
			err := m.RunUntilRetired(context.Background(), min(m.Retired()+fuzzChunk, fuzzMeasure))
			checkInvariants(t, "fuzz", m)
			law.check(t, "fuzz")
			if errors.Is(err, ErrCycleBudget) {
				if stalled := m.cycle - m.lastRetireCycle; stalled > fuzzStall {
					t.Fatalf("deadlock: no retirement in the last %d cycles of the budget (%d retired)", stalled, m.Retired())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}
