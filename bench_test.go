// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation. Each benchmark regenerates the figure's rows (printed
// via b.Log) and reports its headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Quick-length runs are used so the suite
// completes in minutes; cmd/loosweep runs the full-length versions.
package loosesim_test

import (
	"testing"

	"loosesim/internal/experiments"
	"loosesim/internal/stats"
)

func benchOptions() experiments.Options {
	opt := experiments.QuickOptions()
	return opt
}

// BenchmarkFig4PipelineLength regenerates Figure 4: relative performance as
// the decode→execute region grows from 6 to 18 cycles.
func BenchmarkFig4PipelineLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig4(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			var rel18 []float64
			for _, r := range tab.Rows {
				rel18 = append(rel18, r.Value(3))
			}
			b.ReportMetric(stats.GeoMean(rel18), "rel18cyc")
			b.ReportMetric(tab.Find("gcc").Value(3), "gcc18cyc")
		}
	}
}

// BenchmarkFig5FixedTotal regenerates Figure 5: fixed 12-cycle total,
// shifting cycles between DEC-IQ and IQ-EX.
func BenchmarkFig5FixedTotal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			b.ReportMetric(tab.Find("swim").Value(3), "swim9_3")
			b.ReportMetric(tab.Find("turb3d").Value(3), "turb3d9_3")
		}
	}
}

// BenchmarkFig6OperandGapCDF regenerates Figure 6: the distribution of
// cycles between first- and second-operand availability on turb3d.
func BenchmarkFig6OperandGapCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			b.ReportMetric(tab.Find("<=9 cycles").Value(0), "cov9cyc")
			b.ReportMetric(tab.Find("<=25 cycles").Value(0), "cov25cyc")
		}
	}
}

// BenchmarkFig8DRASpeedup regenerates Figure 8: DRA vs base machine for
// 3/5/7-cycle register files.
func BenchmarkFig8DRASpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			b.ReportMetric(tab.Find("swim").Value(2), "swimRF7")
			b.ReportMetric(tab.Find("apsi").Value(1), "apsiRF5")
		}
	}
}

// BenchmarkFig9OperandLocation regenerates Figure 9: operand delivery path
// shares under the 7_3 DRA.
func BenchmarkFig9OperandLocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			b.ReportMetric(tab.Find("apsi").Value(3), "apsiMiss%")
			var fw []float64
			for _, r := range tab.Rows {
				fw = append(fw, r.Value(1))
			}
			b.ReportMetric(stats.GeoMean(fw), "fwdShare")
		}
	}
}

// BenchmarkAblationLoadRecovery compares reissue / refetch / stall handling
// of the load resolution loop (Section 2.2.2).
func BenchmarkAblationLoadRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationLoadRecovery(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			b.ReportMetric(tab.Find("swim").Value(1), "swimRefetch")
			b.ReportMetric(tab.Find("swim").Value(2), "swimStall")
		}
	}
}

// BenchmarkAblationCRC sweeps CRC capacity and insertion-counter width
// (Sections 4–5 design choices).
func BenchmarkAblationCRC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationCRC(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			b.ReportMetric(tab.Find("apsi").Value(0), "apsi4entry")
		}
	}
}

// BenchmarkAblationForwardDepth sweeps the forwarding buffer depth
// (Section 2.2.1 / Figure 6).
func BenchmarkAblationForwardDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationForwardDepth(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			b.ReportMetric(tab.Find("turb3d").Value(0), "turb3dDepth3")
		}
	}
}

// BenchmarkAblationCRCPolicy compares FIFO, LRU, and timeout-based CRC
// management (Sections 5.1 and 5.5).
func BenchmarkAblationCRCPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationCRCPolicy(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			b.ReportMetric(tab.Find("apsi").Value(1), "apsiLRU")
		}
	}
}

// BenchmarkAblationMonolithic compares the clustered CRCs against the
// Section 4 single-cache strawman.
func BenchmarkAblationMonolithic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationMonolithic(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			b.ReportMetric(tab.Find("swim").Value(1), "swimMono16")
		}
	}
}

// BenchmarkAblationMemDep compares memory dependence loop managements
// (Figure 2's load/store reorder trap loop).
func BenchmarkAblationMemDep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationMemDep(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			b.ReportMetric(tab.Find("m88").Value(2), "m88Conserv")
		}
	}
}

// BenchmarkAblationPredictor sweeps branch predictor quality (the branch
// resolution loop's mis-speculation-rate lever).
func BenchmarkAblationPredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationPredictor(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			b.ReportMetric(tab.Find("gcc").Value(4), "gccStatic")
		}
	}
}

// BenchmarkAblationIQPressure quantifies IQ occupancy pressure versus IQ-EX
// latency (Section 2.2.2).
func BenchmarkAblationIQPressure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationIQPressure(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			b.ReportMetric(tab.Find("swim").Value(7), "swimRetained9")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed in simulated
// instructions per wall-clock second on the base machine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg, err := newThroughputConfig()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := 0.0
	for i := 0; i < b.N; i++ {
		res, err := runConfig(cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += float64(res.Counters.Retired)
	}
	b.ReportMetric(total/b.Elapsed().Seconds(), "sim-inst/s")
}
