package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"loosesim/internal/regfile"
	"loosesim/internal/snap"
	"loosesim/internal/uop"
	"loosesim/internal/workload"
)

// snapshotConfigs covers the machine variants with distinct snapshot
// payloads: every predictor family the dispatcher handles, DRA on and
// off, and SMT (two threads, two generators, shared IQ).
func snapshotConfigs(t *testing.T) map[string]Config {
	t.Helper()
	mk := func(bench string, mutate func(*Config)) Config {
		wl, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(wl)
		cfg.WarmupInstructions = 5_000
		cfg.MeasureInstructions = 12_000
		if mutate != nil {
			mutate(&cfg)
		}
		return cfg
	}
	return map[string]Config{
		"base":    mk("gcc", nil),
		"gshare":  mk("m88", func(c *Config) { c.Predictor = PredGShare }),
		"bimodal": mk("swim", func(c *Config) { c.Predictor = PredBimodal }),
		"static":  mk("comp", func(c *Config) { c.Predictor = PredStatic }),
		"smt":     mk("m88-comp", nil),
		"dra": mk("gcc", func(c *Config) {
			c.UseDRA = true
			c.Predictor = PredPerceptron
		}),
	}
}

// mustSnapshot wraps Snapshot with the test fatal path.
func mustSnapshot(t *testing.T, m *Machine) []byte {
	t.Helper()
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotRoundTrip checks the codec identity decode(encode(state)) ==
// state by re-encoding a restored machine and comparing bytes — at the
// fresh state and mid-run with the pipeline full.
func TestSnapshotRoundTrip(t *testing.T) {
	for name, cfg := range snapshotConfigs(t) {
		t.Run(name, func(t *testing.T) {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, stop := range []uint64{0, 7_001} {
				if err := m.RunUntilRetired(context.Background(), stop); err != nil {
					t.Fatal(err)
				}
				data := mustSnapshot(t, m)
				m2, err := Restore(cfg, data)
				if err != nil {
					t.Fatalf("restore at %d retired: %v", stop, err)
				}
				if again := mustSnapshot(t, m2); !bytes.Equal(data, again) {
					t.Fatalf("restore at %d retired re-encodes differently: %d vs %d bytes",
						stop, len(data), len(again))
				}
			}
		})
	}
}

// TestSnapshotResumeByteIdentity is the tentpole invariant: checkpoint a
// machine mid-run, restore into a fresh machine, run both to completion —
// the results and the final machine states must be byte-identical, and
// taking the snapshot must not perturb the original run.
func TestSnapshotResumeByteIdentity(t *testing.T) {
	for name, cfg := range snapshotConfigs(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()

			// Reference: an uninterrupted run.
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			refRes, err := ref.RunContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			refFinal := mustSnapshot(t, ref)

			// Checkpoint mid-warmup and mid-measurement, restore, resume.
			for _, stop := range []uint64{3_000, 9_500} {
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.RunUntilRetired(ctx, stop); err != nil {
					t.Fatal(err)
				}
				ckpt := mustSnapshot(t, m)

				resumed, err := Restore(cfg, ckpt)
				if err != nil {
					t.Fatal(err)
				}
				res, err := resumed.RunContext(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, refRes) {
					t.Fatalf("stop %d: resumed result differs:\n%+v\nwant\n%+v", stop, res, refRes)
				}
				if got := mustSnapshot(t, resumed); !bytes.Equal(got, refFinal) {
					t.Fatalf("stop %d: final state differs from uninterrupted run", stop)
				}

				// The snapshotted original continues unperturbed too.
				res2, err := m.RunContext(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res2, refRes) {
					t.Fatalf("stop %d: snapshotting perturbed the original run", stop)
				}
			}
		})
	}
}

// TestSnapshotRejectsMismatchedConfig checks the config digest guards
// against restoring under a structurally different machine.
func TestSnapshotRejectsMismatchedConfig(t *testing.T) {
	cfgs := snapshotConfigs(t)
	cfg := cfgs["base"]
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilRetired(context.Background(), 2_000); err != nil {
		t.Fatal(err)
	}
	data := mustSnapshot(t, m)

	// Run-length and observability changes are compatible by design.
	compat := cfg
	compat.WarmupInstructions = 1
	compat.MeasureInstructions = 99_999
	compat.CycleBudget = 1 << 40
	if _, err := Restore(compat, data); err != nil {
		t.Fatalf("compatible config rejected: %v", err)
	}

	// Structural changes are not.
	for name, mutate := range map[string]func(*Config){
		"seed":      func(c *Config) { c.Seed ^= 1 },
		"iq":        func(c *Config) { c.IQEntries *= 2 },
		"predictor": func(c *Config) { c.Predictor = PredGShare },
		"regs":      func(c *Config) { c.NumPhysRegs += 32 },
	} {
		bad := cfg
		mutate(&bad)
		if _, err := Restore(bad, data); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("%s: mismatched config accepted (err=%v)", name, err)
		}
	}
}

// TestRestoreRejectsUnholdableIQEntry: an IQ entry whose uop is still in
// decode or already squashed, or whose uop reads a source naming no
// register (or an index below the invalid marker), cannot occur. Restoring
// one would corrupt the queue's parked and armed lists and retained count,
// or index its wakeup table out of range — so a snapshot carrying one,
// checksum intact, is refused rather than panicking.
func TestRestoreRejectsUnholdableIQEntry(t *testing.T) {
	cfg := snapshotConfigs(t)["base"]
	for name, corrupt := range map[string]func(*uop.UOp){
		"decode":         func(u *uop.UOp) { u.State = uop.StateDecode },
		"squashed":       func(u *uop.UOp) { u.State = uop.StateSquashed },
		"unnamed source": func(u *uop.UOp) { u.NumSrc, u.Src[1] = 2, regfile.PRegInvalid },
		"negative preg":  func(u *uop.UOp) { u.NumSrc, u.Src[1] = 2, -5 },
	} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.RunUntilRetired(context.Background(), 3_000); err != nil {
			t.Fatal(err)
		}
		var victim *uop.UOp
		for c := 0; c < cfg.Clusters && victim == nil; c++ {
			for _, u := range m.q.ClusterEntries(c) {
				if u.State == uop.StateWaiting {
					victim = u
					break
				}
			}
		}
		if victim == nil {
			t.Fatal("no waiting IQ entry to corrupt")
		}
		corrupt(victim)
		if _, err := Restore(cfg, mustSnapshot(t, m)); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: IQ entry accepted (err=%v)", name, err)
		}
	}
}

// TestSnapshotCorruptionDetected flips bytes across the container and
// checks every corruption either errors or, at minimum, never panics.
func TestSnapshotCorruptionDetected(t *testing.T) {
	cfg := snapshotConfigs(t)["base"]
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilRetired(context.Background(), 6_000); err != nil {
		t.Fatal(err)
	}
	data := mustSnapshot(t, m)

	if _, err := Restore(cfg, data[:len(data)/2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	step := len(data)/97 + 1
	for i := 0; i < len(data); i += step {
		mutated := bytes.Clone(data)
		mutated[i] ^= 0x41
		if _, err := Restore(cfg, mutated); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
}

// TestWarmForwardAdvancesState checks the functional-warming fast path
// moves the generators and trains caches and predictor without running
// the pipeline.
func TestWarmForwardAdvancesState(t *testing.T) {
	cfg := snapshotConfigs(t)["smt"]
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.WarmForward(50_000)
	if got := m.Warmed(); got != 50_000 {
		t.Fatalf("Warmed() = %d, want 50000", got)
	}
	if m.Cycle() != 0 || m.Retired() != 0 {
		t.Fatalf("warming ran the pipeline: cycle %d, retired %d", m.Cycle(), m.Retired())
	}

	// A warmed machine snapshots and restores like any other, and the
	// restored copy runs identically to the warmed original.
	data := mustSnapshot(t, m)
	m2, err := Restore(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := m.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resB, err := m2.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("warmed-restored run differs:\n%+v\nwant\n%+v", resB, resA)
	}

	// Warming must change behaviour relative to a cold machine — that is
	// its whole point: the caches and predictor carry history forward.
	cold, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resCold, err := cold.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(resA.Counters, resCold.Counters) {
		t.Fatal("warming had no effect on a subsequent run")
	}
}

// TestRestoreContinuesGeneratorStreams: checkpoints carry the workload
// generators' full state, so a machine restored from a checkpoint taken
// 2M warmed instructions in continues every thread's correct-path and
// wrong-path stream exactly as the uninterrupted chain does.
func TestRestoreContinuesGeneratorStreams(t *testing.T) {
	cfgs := snapshotConfigs(t)
	for _, name := range []string{"base", "smt", "dra"} {
		t.Run(name, func(t *testing.T) {
			cfg := cfgs[name]
			chain, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			chain.WarmForward(2_000_000)
			m, err := Restore(cfg, mustSnapshot(t, chain))
			if err != nil {
				t.Fatal(err)
			}
			if m.Warmed() != chain.Warmed() {
				t.Fatalf("restored stream position %d, chain at %d", m.Warmed(), chain.Warmed())
			}
			for i, ct := range chain.threads {
				rt := m.threads[i]
				for j := 0; j < 10_000; j++ {
					if want, got := ct.gen.Next(), rt.gen.Next(); got != want {
						t.Fatalf("thread %d draw %d: %v, chain drew %v", i, j, got, want)
					}
					if want, got := ct.wp.Next(), rt.wp.Next(); got != want {
						t.Fatalf("thread %d wrong-path draw %d: %v, chain drew %v", i, j, got, want)
					}
				}
			}
		})
	}
}

// TestRestoreRejectsOldVersion: a checkpoint of the previous version
// (version 2: IQ statistics counters, wakeup state after the IQ lists)
// fails with a version error rather than decoding under the current
// layout.
func TestRestoreRejectsOldVersion(t *testing.T) {
	cfg := snapshotConfigs(t)["base"]
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta, payload, err := snap.Open(mustSnapshot(t, m), snapMagic, snapVersion)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Restore(cfg, snap.Seal(snapMagic, snapVersion-1, meta, payload))
	want := fmt.Sprintf("version %d, want %d", snapVersion-1, snapVersion)
	if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Fatalf("v%d checkpoint restore error = %v, want a version error", snapVersion-1, err)
	}
}

// TestSnapshotBufferSizedOnce checks that Snapshot encodes into the one
// buffer it sizes up front: for every snapshot config, fresh, after
// functional warming (the sampler's checkpoints) and mid-run with the
// pipeline full, the checkpoint's capacity is still the one Snapshot
// asked for, so the payload never outgrew it and nothing was copied.
func TestSnapshotBufferSizedOnce(t *testing.T) {
	for name, cfg := range snapshotConfigs(t) {
		t.Run(name, func(t *testing.T) {
			digest, err := ConfigDigest(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage string, m *Machine) {
				t.Helper()
				want := 8 + 4 + 4 + len(digest) + 8 + m.snapshotCap() + 32
				if data := mustSnapshot(t, m); cap(data) != want {
					t.Errorf("%s: checkpoint of %d bytes has capacity %d, Snapshot sized %d", stage, len(data), cap(data), want)
				}
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check("fresh", m)
			m.WarmForward(20_000)
			check("warmed", m)
			if err := m.RunUntilRetired(context.Background(), 7_001); err != nil {
				t.Fatal(err)
			}
			check("mid-run", m)
		})
	}
}
