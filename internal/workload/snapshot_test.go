package workload

import (
	"bytes"
	"errors"
	"testing"

	"loosesim/internal/isa"
	"loosesim/internal/snap"
)

func encodeGen(g *Generator) []byte {
	var c snap.Codec
	g.Sync(&c)
	return c.Bytes()
}

// restoreGen decodes data into a fresh generator for prof and returns the
// latched error, including trailing bytes.
func restoreGen(prof Profile, data []byte) (*Generator, error) {
	g := NewGenerator(prof, 99, 1<<33)
	c := snap.NewDecoder(data)
	g.Sync(c)
	return g, c.Expect()
}

// TestGeneratorSnapshotResume: a generator restored from a mid-stream
// snapshot continues exactly as the original, and re-encodes to the same
// bytes. The restoring generator is built with a different seed, so
// nothing seed-derived survives except what the snapshot carries.
func TestGeneratorSnapshotResume(t *testing.T) {
	for _, name := range []string{"gcc", "swim", "apsi", "turb3d"} {
		prof := profiles[name]
		g := NewGenerator(prof, 5, 1<<33)
		for i := 0; i < 30_000; i++ {
			g.Next()
		}
		data := encodeGen(g)
		r, err := restoreGen(prof, data)
		if err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if !bytes.Equal(encodeGen(r), data) {
			t.Fatalf("%s: restored generator re-encodes differently", name)
		}
		for i := 0; i < 10_000; i++ {
			if a, b := g.Next(), r.Next(); a != b {
				t.Fatalf("%s: draw %d after restore: %v, want %v", name, i, b, a)
			}
		}
		if r.Generated() != g.Generated() {
			t.Fatalf("%s: Generated %d, want %d", name, r.Generated(), g.Generated())
		}
	}
}

// TestGeneratorRestoreRejectsBadState: every index Restore range-checks
// and every register it validates, set out of range in an otherwise
// valid snapshot, is rejected with snap.ErrCorrupt.
func TestGeneratorRestoreRejectsBadState(t *testing.T) {
	prof := profiles["gcc"]
	cases := []struct {
		name    string
		corrupt func(g *Generator)
	}{
		{"tap past end", func(g *Generator) { g.rng.tap = rngLen }},
		{"negative tap", func(g *Generator) { g.rng.tap = -1 }},
		{"feed past end", func(g *Generator) { g.rng.feed = rngLen }},
		{"ring head past end", func(g *Generator) { g.head = ringSize }},
		{"negative ring head", func(g *Generator) { g.head = -1 }},
		{"ring overfull", func(g *Generator) { g.ringLen = ringSize + 1 }},
		{"negative ring len", func(g *Generator) { g.ringLen = -1 }},
		{"recent stores overfull", func(g *Generator) { g.recentStoreLen = len(g.recentStores) + 1 }},
		{"recent-store cursor past end", func(g *Generator) { g.recentStoreCur = len(g.recentStores) }},
		{"negative recent-store cursor", func(g *Generator) { g.recentStoreCur = -1 }},
		{"ring register", func(g *Generator) { g.ring[3] = isa.NumArchRegs }},
		{"next destination invalid", func(g *Generator) { g.nextDest = isa.RegInvalid }},
		{"next destination global", func(g *Generator) { g.nextDest = isa.NumGlobalRegs - 1 }},
		{"last destination", func(g *Generator) { g.lastDest = isa.NumArchRegs + 5 }},
		{"hot value", func(g *Generator) { g.hotVal = isa.RegInvalid - 1 }},
		{"chain register", func(g *Generator) { g.chainReg = isa.NumArchRegs }},
		{"extra stream", func(g *Generator) { g.streams = append(g.streams, 0) }},
		{"missing stream", func(g *Generator) { g.streams = g.streams[:len(g.streams)-1] }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := NewGenerator(prof, 5, 1<<33)
			for i := 0; i < 1_000; i++ {
				g.Next()
			}
			if _, err := restoreGen(prof, encodeGen(g)); err != nil {
				t.Fatalf("valid state rejected: %v", err)
			}
			c.corrupt(g)
			_, err := restoreGen(prof, encodeGen(g))
			if !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("restore error = %v, want snap.ErrCorrupt", err)
			}
		})
	}

	// A snapshot of another profile's generator carries the wrong stream
	// count for this one.
	other := NewGenerator(profiles["swim"], 5, 1<<33)
	if profiles["swim"].NumStreams == prof.NumStreams {
		t.Fatal("test needs profiles with different stream counts")
	}
	if _, err := restoreGen(prof, encodeGen(other)); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("cross-profile restore error = %v, want snap.ErrCorrupt", err)
	}
}
