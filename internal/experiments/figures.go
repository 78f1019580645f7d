package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/compressors"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ebcl"
	"repro/internal/fl"
	"repro/internal/lanes"
	"repro/internal/netsim"
	"repro/internal/nn/models"
	"repro/internal/stats"
)

// Fig2 reproduces "Comparing FL Model Parameters vs Scientific Simulation
// Data": snippet smoothness of trained weights vs a synthetic MIRANDA-like
// field.
func Fig2(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig2",
		Title:   "Spikiness of FL weights vs scientific data (mean |Δ| / range; higher = spikier)",
		Columns: []string{"Source", "Snippet", "Smoothness", "Range"},
	}
	// Trained mini-model weights (a short FL run makes them realistic).
	fed, err := buildFederation(cfg, "alexnet", "cifar10", fl.Raw, 0xF2)
	if err != nil {
		return nil, err
	}
	if _, err := fed.Run(context.Background(), min(cfg.Rounds, 3), 1); err != nil {
		return nil, err
	}
	weights := lossyPartitionData(fed.Global.StateDict(), 0)
	snippet := 500
	for i := 0; i+snippet < len(weights) && i < 5*len(weights)/6; i += len(weights) / 5 {
		s := weights[i : i+snippet]
		sm := dataset.Smoothness(s)
		e := lanes.Scan(s)
		t.AddRow("fl-weights", fmt.Sprintf("[%d,%d)", i, i+snippet), f4(sm), fmt.Sprintf("[%.2f,%.2f]", e.Lo, e.Hi))
	}
	field := dataset.ScientificField(cfg.Seed, 1<<16)
	for k := 0; k < 3; k++ {
		lo := k * len(field) / 4
		s := field[lo : lo+snippet]
		sm := dataset.Smoothness(s)
		e := lanes.Scan(s)
		t.AddRow("miranda-like", fmt.Sprintf("[%d,%d)", lo, lo+snippet), f4(sm), fmt.Sprintf("[%.2f,%.2f]", e.Lo, e.Hi))
	}
	t.AddNote("paper shape: FL weights are spiky (high |Δ|/range), simulation fields are smooth — this is why ZFP underperforms on model data")
	return t, nil
}

// Fig3 reproduces "Distribution of Pretrained Weights for Various Models"
// as text histograms over the profile dicts.
func Fig3(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "Weight distributions per model (profile dicts, 15-bin histogram over [-0.3, 0.3])",
		Columns: []string{"Model", "Std", "P01", "P99", "Histogram"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xF13))
	for _, name := range models.Names() {
		profile, err := models.BuildProfile(name, rng, cfg.ProfileScale)
		if err != nil {
			return nil, err
		}
		w := lossyPartitionData(profile, 0)
		summ := stats.Summarize(w)
		h := stats.NewHistogram(w, -0.3, 0.3, 15)
		t.AddRow(name, f3(summ.Std), f3(stats.Quantile(w, 0.01)), f3(stats.Quantile(w, 0.99)), sparkline(h))
	}
	t.AddNote("paper shape: all models' weights inside ±1 with sharp zero peaks; AlexNet/ResNet50 narrow, MobileNetV2 wide")
	return t, nil
}

// sparkline renders a histogram as a compact bar string.
func sparkline(h *stats.Histogram) string {
	glyphs := []rune(" .:-=+*#%@")
	maxC := 1
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for _, c := range h.Counts {
		idx := c * (len(glyphs) - 1) / maxC
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}

// Fig4 reproduces "Accuracy Convergence Comparison for EBLCs": per-round
// accuracy for each compressor plus the uncompressed baseline; SZx
// collapses to chance.
func Fig4(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig4",
		Title:   "Accuracy convergence per compressor (mini-FL, AlexNet-mini on CIFAR10-like, REL 1e-2)",
		Columns: []string{"Transport", "AccByRound", "Final(%)"},
	}
	runs := []struct {
		label string
		comp  string
	}{
		{"uncompressed", ""},
		{"fedsz-sz2", "sz2"},
		{"fedsz-sz3", "sz3"},
		{"fedsz-zfp", "zfp"},
		{"fedsz-szx", "szx"},
	}
	for _, r := range runs {
		transport := fl.Raw
		if r.comp != "" {
			comp, err := compressors.Get(r.comp)
			if err != nil {
				return nil, err
			}
			transport = fl.FedSZ(core.Options{Lossy: comp, LossyParams: ebcl.Rel(1e-2)})
		}
		fed, err := buildFederation(cfg, "alexnet", "cifar10", transport, 0xF4)
		if err != nil {
			return nil, err
		}
		results, err := fed.Run(context.Background(), cfg.Rounds, 1)
		if err != nil {
			return nil, err
		}
		var curve []string
		for _, res := range results {
			curve = append(curve, fmt.Sprintf("%.0f", 100*res.Accuracy))
		}
		t.AddRow(r.label, strings.Join(curve, " "), f2(100*results[len(results)-1].Accuracy))
	}
	t.AddNote("paper shape: SZ2/SZ3/ZFP track the uncompressed curve")
	t.AddNote("divergence: the paper reports SZx at 10%% (chance) for every bound; a bound-conforming SZx cannot produce that collapse on these models — its truncation error is provably <= eb x range. The failure mode exists (outlier-dominated ranges collapse near-zero blocks, see szx tests) but the paper's blanket 10%% is attributable to its specific SZx v1.0.0 integration. See EXPERIMENTS.md")
	return t, nil
}

// fig5Bounds are the sweep points of paper Figure 5.
var fig5Bounds = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1}

// Fig5 reproduces "Inference Accuracy Across Diverse Models and Datasets
// while Varying FedSZ Relative Error Bound".
func Fig5(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "Final accuracy vs REL error bound (FedSZ-SZ2 vs uncompressed)",
		Columns: []string{"Model", "Dataset", "Uncomp(%)", "1e-5", "1e-4", "1e-3", "1e-2", "1e-1"},
	}
	for _, combo := range modelDatasetCombos(cfg) {
		modelName, ds := combo[0], combo[1]
		fedRaw, err := buildFederation(cfg, modelName, ds, fl.Raw, 0xF5)
		if err != nil {
			return nil, err
		}
		rawRes, err := fedRaw.Run(context.Background(), cfg.Rounds, 1)
		if err != nil {
			return nil, err
		}
		row := []string{modelName, ds, f2(100 * rawRes[len(rawRes)-1].Accuracy)}
		for _, eb := range fig5Bounds {
			tr := fl.FedSZ(core.Options{LossyParams: ebcl.Rel(eb)})
			fed, err := buildFederation(cfg, modelName, ds, tr, 0xF5)
			if err != nil {
				return nil, err
			}
			res, err := fed.Run(context.Background(), cfg.Rounds, 1)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(100*res[len(res)-1].Accuracy))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: accuracy flat for bounds <= 1e-2, sharp decline at 1e-1")
	return t, nil
}

// Fig6 reproduces "Client Runtime per Epoch Breakdown including FedSZ
// Compression".
func Fig6(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig6",
		Title:   "Round time breakdown with FedSZ at REL 1e-2 (train / validate / compress+decompress)",
		Columns: []string{"Model", "Dataset", "Train", "Validate", "Codec", "Codec%"},
	}
	for _, combo := range modelDatasetCombos(cfg) {
		modelName, ds := combo[0], combo[1]
		tr := fl.FedSZ(core.Options{LossyParams: ebcl.Rel(1e-2)})
		fed, err := buildFederation(cfg, modelName, ds, tr, 0xF6)
		if err != nil {
			return nil, err
		}
		res, err := fed.RunRound(context.Background(), 0, 1)
		if err != nil {
			return nil, err
		}
		codec := res.Timings.Compress + res.Timings.Decompress
		total := res.Timings.Train + res.Timings.Validate + codec
		t.AddRow(modelName, ds, ms(res.Timings.Train), ms(res.Timings.Validate), ms(codec),
			pct(float64(codec)/float64(total)))
	}
	t.AddNote("paper shape: compression is a small share of round time (avg 4.7%%, worst 17%%); mini models shrink training cost so the share runs higher here")
	return t, nil
}

// fig7Bounds are the sweep points of paper Figure 7.
var fig7Bounds = []float64{1e-5, 1e-4, 1e-3, 1e-2}

// Fig7 reproduces "Total Communication Time for Models over Different REL
// Error Bounds on 10Mbps Network".
func Fig7(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "Communication time on a 10 Mbps link, FedSZ vs uncompressed (paper-scale extrapolation)",
		Columns: []string{"Model", "REL", "FedSZ(s)", "Uncompressed(s)", "Reduction"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xF7))
	for _, modelName := range models.Names() {
		profile, err := models.BuildProfile(modelName, rng, cfg.ProfileScale)
		if err != nil {
			return nil, err
		}
		for _, eb := range fig7Bounds {
			c, err := measurePaperCost(profile, core.Options{LossyParams: ebcl.Rel(eb)}, cfg.ProfileScale)
			if err != nil {
				return nil, err
			}
			d := c.decide(netsim.EdgeLink)
			t.AddRow(modelName, fmt.Sprintf("%.0e", eb), secs(d.CompressedTime),
				secs(d.UncompressedTime), f2(d.Speedup())+"x")
		}
	}
	t.AddNote("paper shape: order-of-magnitude reduction at every bound on 10 Mbps (13.26x for AlexNet at 1e-2)")
	return t, nil
}

// fig8Codecs and fig8Mbps are the compressors and bandwidths of paper
// Figure 8.
var (
	fig8Codecs = []string{"sz2", "sz3", "zfp"}
	fig8Mbps   = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000}
)

// Fig8 reproduces "Communication Time for Transmitting AlexNet over
// Variable Network": time vs bandwidth per compressor, with the compression
// crossover.
func Fig8(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "AlexNet transfer time vs bandwidth per compressor (codec time + transfer, paper-scale extrapolation)",
		Columns: []string{"Bandwidth(Mbps)", "sz2", "sz3", "zfp", "original", "winner"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xF8))
	profile, err := models.BuildProfile("alexnet", rng, cfg.ProfileScale)
	if err != nil {
		return nil, err
	}
	costs := make([]paperCost, len(fig8Codecs))
	for i, name := range fig8Codecs {
		comp, err := compressors.Get(name)
		if err != nil {
			return nil, err
		}
		costs[i], err = measurePaperCost(profile, core.Options{Lossy: comp, LossyParams: ebcl.Rel(1e-2)}, cfg.ProfileScale)
		if err != nil {
			return nil, err
		}
	}
	fig8Sweep(t, costs)
	return t, nil
}

// fig8Sweep adds Figure 8's rows and note to t from one cost per fig8Codecs
// entry. A row's winner is the fastest codec whose Eqn 1 Decision is to
// compress, else "original"; the note names the first bandwidth with none.
func fig8Sweep(t *Table, costs []paperCost) {
	crossover := -1.0
	for _, mbps := range fig8Mbps {
		link := netsim.Link{BandwidthMbps: mbps}
		row := []string{fmt.Sprintf("%g", mbps)}
		best, bestT := "original", time.Duration(math.MaxInt64)
		var raw time.Duration
		for i, c := range costs {
			d := c.decide(link)
			row = append(row, secs(d.CompressedTime))
			raw = d.UncompressedTime
			if d.Compress && d.CompressedTime < bestT {
				best, bestT = fig8Codecs[i], d.CompressedTime
			}
		}
		if best == "original" && crossover < 0 {
			crossover = mbps
		}
		t.AddRow(append(row, secs(raw), best)...)
	}
	if crossover > 0 {
		t.AddNote("compression stops paying off near %g Mbps (paper: ~500 Mbps)", crossover)
	} else {
		t.AddNote("compression wins at every tested bandwidth")
	}
}

// fig9Cores are the MPI core counts of paper Figure 9.
var fig9Cores = []int{2, 4, 8, 16, 32, 64, 128}

// Fig9 reproduces the weak/strong scaling study: virtual round times for
// MobileNetV2 on CIFAR-10 at 10 Mbps with and without FedSZ.
func Fig9(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "Weak & strong scaling at 10 Mbps (MobileNetV2-mini profile, virtual clock)",
		Columns: []string{"Mode", "Workers", "Clients", "FedSZ", "Uncompressed", "Speedup(FedSZ)"},
	}
	// Calibrate one client's real costs from a mini round.
	tr := fl.FedSZ(core.Options{LossyParams: ebcl.Rel(1e-2)})
	fed, err := buildFederation(cfg, "mobilenetv2", "cifar10", tr, 0xF9)
	if err != nil {
		return nil, err
	}
	res, err := fed.RunRound(context.Background(), 0, 1)
	if err != nil {
		return nil, err
	}
	nClients := len(fed.Clients)
	fz := netsim.ClientProfile{
		ComputeTime:  res.Timings.Train,
		CompressTime: (res.Timings.Compress + res.Timings.Decompress) / time.Duration(nClients),
		UploadBytes:  res.WireBytes / nClients,
	}
	raw := netsim.ClientProfile{
		ComputeTime: res.Timings.Train,
		UploadBytes: res.RawBytes / nClients,
	}
	weakFZ := netsim.WeakScaling(fz, fig9Cores, netsim.EdgeLink)
	weakRaw := netsim.WeakScaling(raw, fig9Cores, netsim.EdgeLink)
	for i := range fig9Cores {
		t.AddRow("weak", fmt.Sprintf("%d", weakFZ[i].Workers), fmt.Sprintf("%d", weakFZ[i].Clients),
			secs(weakFZ[i].RoundTime), secs(weakRaw[i].RoundTime),
			f2(float64(weakRaw[i].RoundTime)/float64(weakFZ[i].RoundTime))+"x")
	}
	strongFZ := netsim.StrongScaling(fz, 127, fig9Cores, netsim.EdgeLink)
	strongRaw := netsim.StrongScaling(raw, 127, fig9Cores, netsim.EdgeLink)
	for i := range fig9Cores {
		t.AddRow("strong", fmt.Sprintf("%d", strongFZ[i].Workers), "127",
			secs(strongFZ[i].RoundTime), secs(strongRaw[i].RoundTime),
			f2(float64(strongRaw[i].RoundTime)/float64(strongFZ[i].RoundTime))+"x")
	}
	t.AddNote("client compute/upload calibrated from a real mini-FL round; transfers simulated on a shared 10 Mbps server link")
	t.AddNote("paper shape: weak scaling grows ~linearly (comm-bound); strong scaling speeds up with workers; FedSZ beats uncompressed throughout")
	return t, nil
}

// fig10Bounds are the error-bound settings of paper Figure 10.
var fig10Bounds = []float64{0.5, 0.1, 0.05}

// Fig10 reproduces "Distribution of Errors for Different Error Bounds" and
// the Laplacian-fit observation motivating the DP discussion.
func Fig10(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig10",
		Title:   "Decompression error distributions (SZ2): Laplace vs Gaussian fit quality",
		Columns: []string{"REL", "ErrStd", "Laplace b", "KS(Laplace)", "KS(Gauss)", "LaplaceWins", "Histogram"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xF10))
	profile, err := models.BuildProfile("alexnet", rng, cfg.ProfileScale)
	if err != nil {
		return nil, err
	}
	weights := lossyPartitionData(profile, core.DefaultThreshold)
	comp, err := compressors.Get("sz2")
	if err != nil {
		return nil, err
	}
	for _, eb := range fig10Bounds {
		stream, err := comp.CompressAppend(nil, weights, ebcl.Rel(eb))
		if err != nil {
			return nil, err
		}
		recon, _, err := comp.DecompressFinite(nil, stream)
		if err != nil {
			return nil, err
		}
		errs := stats.Errors(weights, recon)
		summ := stats.Summarize(errs)
		lf := stats.FitLaplace(errs)
		gf := stats.FitGaussian(errs)
		ksL := stats.KSDistance(errs, lf.CDF)
		ksG := stats.KSDistance(errs, gf.CDF)
		lim := 3 * summ.Std
		if lim == 0 {
			lim = 1e-9
		}
		h := stats.NewHistogram(errs, -lim, lim, 15)
		t.AddRow(fmt.Sprintf("%g", eb), fmt.Sprintf("%.2e", summ.Std), fmt.Sprintf("%.2e", lf.B),
			f4(ksL), f4(ksG), fmt.Sprintf("%v", ksL < ksG), sparkline(h))
	}
	t.AddNote("paper shape: error histograms peaked at zero with heavy tails, closer to Laplace than Gaussian — the DP potential of §VII-D")
	return t, nil
}
