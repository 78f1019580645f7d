package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/compressors"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ebcl"
	"repro/internal/fl"
	"repro/internal/lossless"
	"repro/internal/nn/models"
)

// table1Bounds are the relative error bounds of paper Table I.
var table1Bounds = []float64{1e-2, 1e-3, 1e-4}

// Table1 reproduces "EBLC Comparison Across Different Models for CIFAR-10":
// per (model, compressor, bound) — compression runtime, throughput,
// compression ratio, and final top-1 accuracy from a mini-FL run.
func Table1(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   "EBLC comparison across models (runtime/throughput/ratio on profile weights; top-1 from mini-FL on CIFAR10-like)",
		Columns: []string{"Model", "Compressor", "REL", "Runtime", "Throughput(MB/s)", "Ratio", "Top-1(%)"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x7AB1))
	for _, modelName := range models.Names() {
		profile, err := models.BuildProfile(modelName, rng, cfg.ProfileScale)
		if err != nil {
			return nil, err
		}
		weights := lossyPartitionData(profile, core.DefaultThreshold)
		rawBytes := 4 * len(weights)
		for _, compName := range []string{"sz2", "sz3", "szx", "zfp"} {
			comp, err := compressors.Get(compName)
			if err != nil {
				return nil, err
			}
			// Accuracy once per (model, compressor): the paper reports a
			// column per bound; quick mode measures at 1e-2 and reuses the
			// run at other bounds only when the compressor is bound-stable.
			accByBound := map[float64]float64{}
			for _, eb := range table1Bounds {
				if !cfg.AllCombos && eb != 1e-2 {
					continue
				}
				acc, err := table1Accuracy(cfg, modelName, compName, eb)
				if err != nil {
					return nil, err
				}
				accByBound[eb] = acc
			}
			for _, eb := range table1Bounds {
				var stream []byte
				dur, err := measure(func() error {
					var cerr error
					stream, cerr = comp.Compress(weights, ebcl.Rel(eb))
					return cerr
				})
				if err != nil {
					return nil, fmt.Errorf("table1 %s/%s: %w", modelName, compName, err)
				}
				ratio := float64(rawBytes) / float64(len(stream))
				accCell := "-"
				if acc, ok := accByBound[eb]; ok {
					accCell = f2(100 * acc)
				} else if acc, ok := accByBound[1e-2]; ok {
					accCell = f2(100*acc) + "*"
				}
				t.AddRow(modelName, compName, fmt.Sprintf("%.0e", eb),
					secs(dur), f2(throughputMBps(rawBytes, dur)), f2(ratio), accCell)
			}
		}
	}
	t.AddNote("profile scale %.2f of paper parameter counts; runtimes are this host, not a Raspberry Pi 5", cfg.ProfileScale)
	if !cfg.AllCombos {
		t.AddNote("* quick mode: accuracy measured at REL 1e-2 and reused for tighter bounds (use -full for per-bound runs)")
	}
	t.AddNote("paper shape: SZ2 best ratio, SZx fastest but collapses accuracy to chance, ZFP lowest ratio on spiky 1-D data")
	return t, nil
}

// table1Accuracy runs mini-FL with the named compressor and returns final
// top-1 accuracy.
func table1Accuracy(cfg Config, modelName, compName string, eb float64) (float64, error) {
	comp, err := compressors.Get(compName)
	if err != nil {
		return 0, err
	}
	tr := fl.FedSZ(core.Options{Lossy: comp, LossyParams: ebcl.Rel(eb)})
	fed, err := buildFederation(cfg, modelName, "cifar10", tr, 0x71)
	if err != nil {
		return 0, err
	}
	results, err := fed.Run(context.Background(), cfg.Rounds, 1)
	if err != nil {
		return 0, err
	}
	return results[len(results)-1].Accuracy, nil
}

// Table2 reproduces "Lossless Compressor Comparison for Compressing AlexNet
// Metadata".
func Table2(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "table2",
		Title:   "Lossless codec comparison on AlexNet metadata partition",
		Columns: []string{"Compressor", "Runtime", "Throughput(MB/s)", "Ratio"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x7AB2))
	profile, err := models.BuildProfile("alexnet", rng, cfg.ProfileScale)
	if err != nil {
		return nil, err
	}
	blob := metadataBlob(profile, core.DefaultThreshold)
	for _, name := range lossless.Names() {
		codec, err := lossless.Get(name)
		if err != nil {
			return nil, err
		}
		var enc []byte
		dur, err := measure(func() error {
			var cerr error
			enc, cerr = codec.Compress(blob)
			return cerr
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(name, ms(dur), f2(throughputMBps(len(blob), dur)),
			f3(float64(len(blob))/float64(len(enc))))
	}
	t.AddNote("metadata partition is %d bytes (%.2f%% of the state dict), small non-uniform float arrays → low ratios, as in the paper", len(blob), 100*float64(len(blob))/float64(profile.SizeBytes()))
	t.AddNote("paper shape: blosclz fastest with competitive ratio; xz best ratio but orders slower")
	return t, nil
}

// Table3 reproduces "DNNs for FedSZ Profiling: Mean Statistics".
func Table3(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "table3",
		Title:   "Model statistics (paper scale, from profile specs; mini variants shown for the training substrate)",
		Columns: []string{"Model", "Params", "Size(MB)", "%LossyData", "GFLOPs", "MiniParams"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x7AB3))
	for _, spec := range models.ProfileSpecs() {
		profile, err := models.BuildProfile(spec.Name, rng, cfg.ProfileScale)
		if err != nil {
			return nil, err
		}
		lossy := len(lossyPartitionData(profile, core.DefaultThreshold))
		mini, err := models.BuildMini(spec.Name, rng, models.Input{Channels: 3, Height: 16, Width: 16, Classes: 10})
		if err != nil {
			return nil, err
		}
		t.AddRow(spec.Name,
			fmt.Sprintf("%.1e", float64(spec.Params)),
			fmt.Sprintf("%d", spec.SizeMB),
			pct(float64(lossy)/float64(profile.NumParams())),
			f2(spec.GFLOPs),
			fmt.Sprintf("%d", mini.NumParams()))
	}
	t.AddNote("Params/Size/GFLOPs are Table III reference values; %%LossyData measured from the generated profile dict")
	return t, nil
}

// Table4 reproduces "Dataset Characteristics for FedSZ Benchmarking".
func Table4(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "table4",
		Title:   "Dataset characteristics (paper scale; training uses scaled synthetic class-prototype sets)",
		Columns: []string{"Dataset", "#Samples", "InputDim", "Classes", "TrainDim(quick)"},
	}
	for _, s := range dataset.Specs() {
		dcfg, err := dataset.ScaledConfig(s.Name, cfg.ImageSide, cfg.TrainN, cfg.TestN, cfg.Seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(s.Name,
			fmt.Sprintf("%d", s.NumSamples),
			fmt.Sprintf("%dx%dx%d", s.Height, s.Width, s.Channels),
			fmt.Sprintf("%d", s.Classes),
			fmt.Sprintf("%dx%dx%d (n=%d)", dcfg.Height, dcfg.Width, dcfg.Channels, cfg.TrainN))
	}
	t.AddNote("real corpora are unavailable offline; synthetic class-prototype generators preserve dimensions, class counts, and learnability")
	return t, nil
}

// table5Bounds are the relative error bounds of paper Table V.
var table5Bounds = []float64{1e-1, 1e-2, 1e-3, 1e-4}

// Table5 reproduces "Compression Ratios for FedSZ for Various Models and
// Datasets": the end-to-end pipeline ratio (SZ2 + blosclz).
func Table5(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "table5",
		Title:   "FedSZ end-to-end state-dict compression ratios (SZ2 + blosclz)",
		Columns: []string{"Model", "Dataset", "REL 1e-1", "REL 1e-2", "REL 1e-3", "REL 1e-4"},
	}
	datasets := []string{"cifar10", "caltech101", "fmnist"}
	for mi, modelName := range models.Names() {
		for di, ds := range datasets {
			// Per-(model,dataset) seed: the dataset influences trained
			// weights in the paper; here it perturbs the profile draw.
			rng := rand.New(rand.NewPCG(cfg.Seed+uint64(mi*10+di), 0x7AB5))
			profile, err := models.BuildProfile(modelName, rng, cfg.ProfileScale)
			if err != nil {
				return nil, err
			}
			row := []string{modelName, ds}
			for _, eb := range table5Bounds {
				_, stats, err := core.Compress(profile, core.Options{LossyParams: ebcl.Rel(eb)})
				if err != nil {
					return nil, err
				}
				row = append(row, f2(stats.Ratio()))
			}
			t.AddRow(row...)
		}
	}
	t.AddNote("paper shape: ratios grow with looser bounds; ~5.5-12.6x at REL 1e-2 across models")
	t.AddNote("dataset column varies the synthetic weight draw (the paper's trained weights differ per dataset)")
	return t, nil
}

// Eqn1Decision validates the compression decision rule across a parameter
// grid (Section II-B).
func Eqn1Decision(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "eqn1",
		Title:   "Eqn-1 compress/don't-compress decision across bandwidths (measured SZ2 costs, AlexNet profile)",
		Columns: []string{"Bandwidth(Mbps)", "RawXfer", "CompXfer+Codec", "Compress?", "Speedup"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x7AB6))
	profile, err := models.BuildProfile("alexnet", rng, cfg.ProfileScale)
	if err != nil {
		return nil, err
	}
	stream, stats, err := core.Compress(profile, core.Options{})
	if err != nil {
		return nil, err
	}
	dDur, err := measureDecompress(stream)
	if err != nil {
		return nil, err
	}
	// Extrapolate codec time and sizes to paper scale (linear in bytes).
	scaleUp := 1 / cfg.ProfileScale
	tC := time.Duration(float64(stats.CompressTime) * scaleUp)
	tD := time.Duration(float64(dDur) * scaleUp)
	raw := int(float64(stats.RawBytes) * scaleUp)
	comp := int(float64(stats.CompressedBytes) * scaleUp)
	for _, mbps := range []float64{1, 10, 100, 500, 1000, 10000} {
		link := linkMbps(mbps)
		d := shouldCompress(tC, tD, raw, comp, link)
		t.AddRow(fmt.Sprintf("%g", mbps), secs(d.UncompressedTime), secs(d.CompressedTime),
			fmt.Sprintf("%v", d.Compress), f2(d.Speedup()))
	}
	t.AddNote("codec times and sizes extrapolated linearly from profile scale %.2f to paper scale", cfg.ProfileScale)
	return t, nil
}

func measureDecompress(stream []byte) (time.Duration, error) {
	return measure(func() error {
		_, _, err := core.Decompress(stream)
		return err
	})
}
