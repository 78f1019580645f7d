package fedsz

// One benchmark per paper table/figure. Each delegates to the experiment
// generator in internal/experiments under a reduced configuration so that
// `go test -bench=.` regenerates every artifact in bounded time; use
// `cmd/fedsz-bench -full` for the high-fidelity sweeps.

import (
	"testing"

	"repro/internal/experiments"
)

// benchConfig is smaller than QuickConfig: benchmarks re-run generators
// b.N times.
func benchConfig() experiments.Config {
	return experiments.Config{
		Seed:         1,
		ProfileScale: 0.02,
		Rounds:       3,
		Clients:      2,
		TrainN:       64,
		TestN:        32,
		ImageSide:    10,
	}
}

func benchExperiment(b *testing.B, id string) {
	gen, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := gen(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable1_EBLC(b *testing.B)         { benchExperiment(b, "table1") }
func BenchmarkTable2_Lossless(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkTable3_ModelStats(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkTable4_Datasets(b *testing.B)     { benchExperiment(b, "table4") }
func BenchmarkTable5_Ratios(b *testing.B)       { benchExperiment(b, "table5") }
func BenchmarkFig2_Smoothness(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig3_WeightDist(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig4_Convergence(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig5_AccuracySweep(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6_TimeBreakdown(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7_CommTime(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8_BandwidthSweep(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9_Scaling(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10_ErrorDist(b *testing.B)     { benchExperiment(b, "fig10") }

func BenchmarkAblatePartition(b *testing.B) { benchExperiment(b, "ablate-partition") }
func BenchmarkAblateThreshold(b *testing.B) { benchExperiment(b, "ablate-threshold") }
func BenchmarkAblateErrorMode(b *testing.B) { benchExperiment(b, "ablate-errormode") }
func BenchmarkAblateLR(b *testing.B)        { benchExperiment(b, "ablate-lr") }
