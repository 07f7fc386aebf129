package core

import (
	"math/rand"
	"testing"

	"loosesim/internal/regfile"
)

func BenchmarkCRCLookup(b *testing.B) {
	c := NewCRC(16, 64)
	for p := regfile.PReg(0); p < 16; p++ {
		c.Insert(p, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(regfile.PReg(i&31), int64(i))
	}
}

func BenchmarkDRAEventMix(b *testing.B) {
	d := New(DefaultConfig(), 512)
	rng := rand.New(rand.NewSource(3))
	pregs := make([]regfile.PReg, 4096)
	clusters := make([]int, 4096)
	for i := range pregs {
		pregs[i] = regfile.PReg(rng.Intn(512))
		clusters[i] = rng.Intn(8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 4095
		switch i & 3 {
		case 0:
			d.RenameDest(pregs[k])
			d.RenameSource(clusters[k], pregs[k])
		case 1:
			d.ForwardHit(clusters[k], pregs[k])
		case 2:
			d.LookupCRC(clusters[k], pregs[k], int64(i))
		default:
			d.Writeback(pregs[k], int64(i))
		}
	}
}
