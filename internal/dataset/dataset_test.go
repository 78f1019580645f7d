package dataset

import (
	"math"
	"testing"
)

func TestSpecsMatchTable4(t *testing.T) {
	specs := Specs()
	if len(specs) != 3 {
		t.Fatal("want 3 datasets")
	}
	want := map[string][4]int{ // classes, samples, H, C
		"cifar10":    {10, 60000, 32, 3},
		"fmnist":     {10, 70000, 28, 1},
		"caltech101": {101, 9000, 224, 3},
	}
	for _, s := range specs {
		w, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected dataset %q", s.Name)
		}
		if s.Classes != w[0] || s.NumSamples != w[1] || s.Height != w[2] || s.Channels != w[3] {
			t.Errorf("%s spec drifted: %+v", s.Name, s)
		}
	}
	if _, err := SpecFor("imagenet"); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestScaledConfigCaps(t *testing.T) {
	cfg, err := ScaledConfig("caltech101", 32, 100, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Height != 32 || cfg.Width != 32 {
		t.Fatalf("caltech not scaled: %dx%d", cfg.Height, cfg.Width)
	}
	if cfg.Classes != 101 {
		t.Fatal("class count must not change when scaling")
	}
	cfg2, _ := ScaledConfig("fmnist", 32, 10, 10, 1)
	if cfg2.Height != 28 {
		t.Fatal("fmnist should keep native 28px under a 32px cap")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg, _ := ScaledConfig("cifar10", 16, 64, 32, 7)
	tr1, te1 := Generate(cfg)
	tr2, te2 := Generate(cfg)
	if tr1.Len() != 64 || te1.Len() != 32 {
		t.Fatalf("sizes %d/%d", tr1.Len(), te1.Len())
	}
	for i := range tr1.X.Data {
		if tr1.X.Data[i] != tr2.X.Data[i] {
			t.Fatal("generation not deterministic")
		}
	}
	for i := range te1.Labels {
		if te1.Labels[i] != te2.Labels[i] {
			t.Fatal("labels not deterministic")
		}
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// Same-class samples must be closer to their prototype than to other
	// classes' samples on average (otherwise nothing can learn the task).
	cfg, _ := ScaledConfig("cifar10", 16, 200, 1, 3)
	tr, _ := Generate(cfg)
	plane := cfg.Channels * cfg.Height * cfg.Width
	// Class means.
	sums := make([][]float64, cfg.Classes)
	counts := make([]int, cfg.Classes)
	for i := range sums {
		sums[i] = make([]float64, plane)
	}
	for s := 0; s < tr.Len(); s++ {
		cl := tr.Labels[s]
		counts[cl]++
		for i := 0; i < plane; i++ {
			sums[cl][i] += float64(tr.X.Data[s*plane+i])
		}
	}
	// Nearest-centroid classification should beat chance handily.
	correct := 0
	for s := 0; s < tr.Len(); s++ {
		best, bestD := -1, math.Inf(1)
		for cl := 0; cl < cfg.Classes; cl++ {
			if counts[cl] == 0 {
				continue
			}
			var d float64
			for i := 0; i < plane; i++ {
				diff := float64(tr.X.Data[s*plane+i]) - sums[cl][i]/float64(counts[cl])
				d += diff * diff
			}
			if d < bestD {
				best, bestD = cl, d
			}
		}
		if best == tr.Labels[s] {
			correct++
		}
	}
	acc := float64(correct) / float64(tr.Len())
	if acc < 0.6 {
		t.Fatalf("nearest-centroid accuracy %.2f, dataset not separable", acc)
	}
}

func TestShardIID(t *testing.T) {
	cfg, _ := ScaledConfig("cifar10", 16, 100, 1, 5)
	tr, _ := Generate(cfg)
	shards := ShardIID(tr, 4, 9)
	if len(shards) != 4 {
		t.Fatal("want 4 shards")
	}
	total := 0
	for _, s := range shards {
		if s.Len() != 25 {
			t.Fatalf("shard size %d want 25", s.Len())
		}
		total += s.Len()
	}
	if total != 100 {
		t.Fatalf("shards cover %d of 100", total)
	}
}

func TestBatch(t *testing.T) {
	cfg, _ := ScaledConfig("fmnist", 16, 10, 1, 2)
	tr, _ := Generate(cfg)
	x, labels := tr.Batch(2, 5)
	if x.Shape[0] != 3 || len(labels) != 3 {
		t.Fatalf("batch shape %v labels %d", x.Shape, len(labels))
	}
	// Batch copies: mutating the batch must not touch the dataset.
	orig := tr.X.Data[2*cfg.Channels*cfg.Height*cfg.Width]
	x.Data[0] += 100
	if tr.X.Data[2*cfg.Channels*cfg.Height*cfg.Width] != orig {
		t.Fatal("Batch must copy")
	}
}

func TestScientificFieldIsSmooth(t *testing.T) {
	field := ScientificField(1, 4096)
	s := Smoothness(field)
	if s > 0.01 {
		t.Fatalf("scientific field smoothness %.4f, want < 0.01", s)
	}
	// Determinism.
	f2 := ScientificField(1, 4096)
	for i := range field {
		if field[i] != f2[i] {
			t.Fatal("field not deterministic")
		}
	}
}

func TestSmoothnessMetric(t *testing.T) {
	if Smoothness(nil) != 0 || Smoothness([]float32{1}) != 0 {
		t.Fatal("degenerate inputs should give 0")
	}
	flat := []float32{2, 2, 2, 2}
	if Smoothness(flat) != 0 {
		t.Fatal("constant should be perfectly smooth")
	}
	spiky := []float32{0, 1, 0, 1, 0, 1}
	smooth := []float32{0, 0.2, 0.4, 0.6, 0.8, 1}
	if Smoothness(spiky) <= Smoothness(smooth) {
		t.Fatal("spiky data must score higher than smooth data")
	}
}
