package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/fl"
	"repro/internal/lossless"
	"repro/internal/nn/models"
)

// AblatePartition answers: what happens if metadata is lossy-compressed too
// (partitioning disabled)? The paper reports "extreme degradation" (§V-C).
func AblatePartition(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "ablate-partition",
		Title:   "Partitioning ablation: lossy-compressing metadata too (ResNet-mini, REL 1e-2)",
		Columns: []string{"Pipeline", "Final Acc(%)", "Ratio"},
	}
	// ResNet-mini carries batch-norm running stats, the metadata whose
	// corruption the partitioning protects against.
	for _, mode := range []struct {
		label   string
		disable bool
	}{
		{"partitioned (FedSZ)", false},
		{"unpartitioned (all lossy)", true},
	} {
		tr := fl.FedSZ(core.Options{
			LossyParams:         ebcl.Rel(1e-2),
			DisablePartitioning: mode.disable,
			Threshold:           -1, // let every tensor through in both modes
		})
		fed, err := buildFederation(cfg, "resnet50", "cifar10", tr, 0xAB1)
		if err != nil {
			return nil, err
		}
		res, err := fed.Run(context.Background(), cfg.Rounds, 1)
		if err != nil {
			return nil, err
		}
		ratio := float64(res[0].RawBytes) / float64(res[0].WireBytes)
		t.AddRow(mode.label, f2(100*res[len(res)-1].Accuracy), f2(ratio))
	}
	t.AddNote("paper §V-C reports 'extreme degradation' without partitioning; with a conforming EBLC at REL 1e-2 the metadata stays within bound here, so no gap appears at this scale")
	t.AddNote("the real hazard is looser bounds / longer training: running variances perturbed below zero make 1/sqrt(var+eps) non-finite and destroy the model — partitioning removes that risk class entirely")
	return t, nil
}

// AblateThreshold sweeps Algorithm 1's size gate.
func AblateThreshold(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "ablate-threshold",
		Title:   "Threshold sensitivity (AlexNet profile, REL 1e-2)",
		Columns: []string{"Threshold", "LossyTensors", "LosslessTensors", "Ratio"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xAB2))
	profile, err := models.BuildProfile("alexnet", rng, cfg.ProfileScale)
	if err != nil {
		return nil, err
	}
	for _, th := range []int{-1, 1024, 10_000, 100_000, 1 << 22} {
		_, stats, err := core.Compress(profile, core.Options{Threshold: th})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d", th)
		if th == -1 {
			label = "0 (gate off)"
		}
		t.AddRow(label, fmt.Sprintf("%d", stats.LossyTensors), fmt.Sprintf("%d", stats.LosslessTensors), f2(stats.Ratio()))
	}
	t.AddNote("the gate matters little for ratio on big models (weights dominate); it protects small tensors from per-stream overhead")
	return t, nil
}

// AblateErrorMode contrasts REL and ABS bounding at matched magnitudes
// (paper §V-D1 argues for relative bounds).
func AblateErrorMode(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "ablate-errormode",
		Title:   "REL vs ABS error bounding (AlexNet profile, SZ2)",
		Columns: []string{"Mode", "Setting", "Ratio", "MaxErr"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xAB3))
	profile, err := models.BuildProfile("alexnet", rng, cfg.ProfileScale)
	if err != nil {
		return nil, err
	}
	weights := lossyPartitionData(profile, core.DefaultThreshold)
	for _, p := range []ebcl.Params{
		ebcl.Rel(1e-2), ebcl.Rel(1e-3),
		ebcl.Abs(1e-2), ebcl.Abs(1e-3),
	} {
		_, stats, err := core.Compress(profile, core.Options{LossyParams: p})
		if err != nil {
			return nil, err
		}
		ebAbs, _ := ebcl.ResolveAbs(weights, p)
		t.AddRow(p.Mode.String(), fmt.Sprintf("%.0e", p.Value), f2(stats.Ratio()), fmt.Sprintf("<=%.2e", ebAbs))
	}
	t.AddNote("a REL bound adapts to each tensor's dynamic range (paper §V-D1); ABS at the same magnitude over-compresses wide layers and under-compresses narrow ones")
	return t, nil
}

// AblateLearningRate explores the paper's first future-work direction
// (§VIII-B): can hyperparameter tuning mitigate the accuracy cost of
// compression noise? Sweep the client learning rate with FedSZ at REL 1e-2
// against the default-lr uncompressed baseline.
func AblateLearningRate(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "ablate-lr",
		Title:   "Hyperparameter mitigation (future work §VIII-B): client LR sweep under FedSZ REL 1e-2",
		Columns: []string{"Transport", "LR", "Final Acc(%)"},
	}
	base, err := buildFederationLR(cfg, "alexnet", "cifar10", fl.Raw, 0xAB5, 0.02)
	if err != nil {
		return nil, err
	}
	res, err := base.Run(context.Background(), cfg.Rounds, 1)
	if err != nil {
		return nil, err
	}
	t.AddRow("uncompressed", "0.020", f2(100*res[len(res)-1].Accuracy))
	for _, lr := range []float64{0.01, 0.02, 0.03, 0.05} {
		tr := fl.FedSZ(core.Options{LossyParams: ebcl.Rel(1e-2)})
		fed, err := buildFederationLR(cfg, "alexnet", "cifar10", tr, 0xAB5, lr)
		if err != nil {
			return nil, err
		}
		res, err := fed.Run(context.Background(), cfg.Rounds, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow("fedsz", fmt.Sprintf("%.3f", lr), f2(100*res[len(res)-1].Accuracy))
	}
	t.AddNote("compression noise acts like extra SGD noise; a modestly higher LR often recovers the uncompressed trajectory")
	return t, nil
}

// AblateLossless swaps the metadata codec inside the full pipeline.
func AblateLossless(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "ablate-lossless",
		Title:   "Lossless backend inside the full pipeline (MobileNetV2 profile, REL 1e-2)",
		Columns: []string{"Codec", "PipelineRatio", "MetadataRatio", "CompressTime"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xAB4))
	// MobileNetV2 has the largest metadata share (Table III), so the codec
	// choice is most visible there.
	profile, err := models.BuildProfile("mobilenetv2", rng, cfg.ProfileScale)
	if err != nil {
		return nil, err
	}
	for _, name := range lossless.Names() {
		codec, err := lossless.Get(name)
		if err != nil {
			return nil, err
		}
		_, stats, err := core.Compress(profile, core.Options{Lossless: codec})
		if err != nil {
			return nil, err
		}
		metaRatio := 0.0
		if stats.LosslessCompressed > 0 {
			metaRatio = float64(stats.LosslessRaw) / float64(stats.LosslessCompressed)
		}
		t.AddRow(name, f2(stats.Ratio()), f3(metaRatio), ms(stats.CompressTime))
	}
	t.AddNote("paper Table II: blosclz is the pick — near-best ratio at the lowest runtime")
	return t, nil
}
