package workload

import (
	"testing"

	"loosesim/internal/isa"
)

// sinkInst keeps the benchmarked draws observable to the compiler.
var sinkInst isa.Inst

// BenchmarkGeneratorNext measures one instruction draw — the fetch stage's
// per-instruction workload cost — on an integer and an FP profile.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, name := range []string{"gcc", "swim"} {
		b.Run(name, func(b *testing.B) {
			g := NewGenerator(profiles[name], 1, 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkInst = g.Next()
			}
		})
	}
}
