package models

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func miniInput() Input { return Input{Channels: 3, Height: 16, Width: 16, Classes: 10} }

func TestBuildMiniAllModels(t *testing.T) {
	for _, name := range Names() {
		rng := rand.New(rand.NewPCG(1, 2))
		net, err := BuildMini(name, rng, miniInput())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := tensor.New(2, 3, 16, 16)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		y := net.Forward(x, true)
		if y.Shape[0] != 2 || y.Shape[1] != 10 {
			t.Fatalf("%s: output shape %v", name, y.Shape)
		}
		for _, v := range y.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite logits", name)
			}
		}
		// Backward must run and produce an input-shaped gradient.
		_, grad := nn.SoftmaxCrossEntropy(y, []int{0, 1})
		dx := net.Backward(grad)
		if dx.NumElems() != x.NumElems() {
			t.Fatalf("%s: dx size %d != %d", name, dx.NumElems(), x.NumElems())
		}
		t.Logf("%s: %d params", name, net.NumParams())
	}
	if _, err := BuildMini("vgg", rand.New(rand.NewPCG(0, 0)), miniInput()); err == nil {
		t.Fatal("unknown model should error")
	}
}

func TestMiniModelsStructuralSignatures(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	// AlexNet: no batch norm → no running stats → highest lossy fraction.
	// MobileNet/ResNet: BN present.
	fractions := map[string]float64{}
	for _, name := range Names() {
		net, err := BuildMini(name, rng, miniInput())
		if err != nil {
			t.Fatal(err)
		}
		sd := net.StateDict()
		lossy, total := 0, 0
		hasRunning := false
		for _, e := range sd.Entries() {
			total += e.Tensor.NumElems()
			if e.Kind == tensor.KindWeight {
				lossy += e.Tensor.NumElems()
			}
			if e.Kind == tensor.KindRunningStat {
				hasRunning = true
			}
		}
		fractions[name] = float64(lossy) / float64(total)
		if name == "alexnet" && hasRunning {
			t.Error("alexnet-mini must not contain batch norm state")
		}
		if name != "alexnet" && !hasRunning {
			t.Errorf("%s-mini must contain batch norm running stats", name)
		}
	}
	// Ordering from Table III: alexnet most lossy, mobilenet least.
	if !(fractions["alexnet"] > fractions["resnet50"] && fractions["resnet50"] > fractions["mobilenetv2"]) {
		t.Errorf("lossy fraction ordering violated: %v", fractions)
	}
}

func TestStateDictNamesUnique(t *testing.T) {
	// StateDict construction panics on duplicates; just building one per
	// model exercises the invariant.
	rng := rand.New(rand.NewPCG(5, 6))
	for _, name := range Names() {
		net, _ := BuildMini(name, rng, miniInput())
		sd := net.StateDict()
		if sd.Len() < 4 {
			t.Fatalf("%s: suspiciously few entries (%d)", name, sd.Len())
		}
	}
}

func TestProfileSpecsMatchTable3(t *testing.T) {
	specs := ProfileSpecs()
	if len(specs) != 3 {
		t.Fatal("want 3 profile specs")
	}
	byName := map[string]ProfileSpec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	if byName["alexnet"].Params != 60_000_000 || byName["alexnet"].LossyFraction != 0.9998 {
		t.Errorf("alexnet spec drifted: %+v", byName["alexnet"])
	}
	if byName["resnet50"].GFLOPs != 8 || byName["mobilenetv2"].GFLOPs != 0.35 {
		t.Error("GFLOPs drifted from Table III")
	}
	if _, err := ProfileSpecFor("nope"); err == nil {
		t.Error("unknown profile should error")
	}
}

func TestBuildProfileShapes(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	const scale = 0.01
	for _, spec := range ProfileSpecs() {
		sd, err := BuildProfile(spec.Name, rng, scale)
		if err != nil {
			t.Fatal(err)
		}
		total := sd.NumParams()
		want := int(float64(spec.Params) * scale)
		if math.Abs(float64(total-want)) > float64(want)/50 {
			t.Errorf("%s: %d params, want ~%d", spec.Name, total, want)
		}
		lossy := 0
		for _, e := range sd.Entries() {
			if e.Kind == tensor.KindWeight {
				lossy += e.Tensor.NumElems()
			}
		}
		frac := float64(lossy) / float64(total)
		if math.Abs(frac-spec.LossyFraction) > 0.01 {
			t.Errorf("%s: lossy fraction %.4f want %.4f", spec.Name, frac, spec.LossyFraction)
		}
		// Weights must be within ±1 (Fig. 3) and concentrated near zero.
		var inTight, n int
		for _, e := range sd.Entries() {
			if e.Kind != tensor.KindWeight {
				continue
			}
			for _, v := range e.Tensor.Data {
				if v < -1 || v > 1 {
					t.Fatalf("%s: weight %v outside ±1", spec.Name, v)
				}
				if v > -0.1 && v < 0.1 {
					inTight++
				}
				n++
			}
		}
		if float64(inTight)/float64(n) < 0.5 {
			t.Errorf("%s: weight mass not concentrated near zero", spec.Name)
		}
	}
	if _, err := BuildProfile("alexnet", rng, 0); err == nil {
		t.Error("zero scale should error")
	}
	if _, err := BuildProfile("alexnet", rng, 2); err == nil {
		t.Error("scale > 1 should error")
	}
}

func TestMiniModelLearns(t *testing.T) {
	// The substrate's end-to-end purpose: a mini model must learn a
	// prototype dataset well above chance within a few epochs.
	rng := rand.New(rand.NewPCG(9, 10))
	net, err := BuildMini("alexnet", rng, Input{Channels: 3, Height: 16, Width: 16, Classes: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny synthetic 4-class task: one blob quadrant per class.
	n := 96
	x := tensor.New(n, 3, 16, 16)
	labels := make([]int, n)
	for s := 0; s < n; s++ {
		cl := s % 4
		labels[s] = cl
		for i := 0; i < 3*16*16; i++ {
			x.Data[s*3*16*16+i] = float32(0.1 * rng.NormFloat64())
		}
		// Bright quadrant identifies the class.
		qy, qx := cl/2, cl%2
		for ch := 0; ch < 3; ch++ {
			for y := 0; y < 8; y++ {
				for xx := 0; xx < 8; xx++ {
					idx := s*3*16*16 + ch*256 + (qy*8+y)*16 + qx*8 + xx
					x.Data[idx] += 1
				}
			}
		}
	}
	opt := nn.NewSGD(0.02, 0.9, 0)
	var acc float64
	for epoch := 0; epoch < 30; epoch++ {
		net.ZeroGrads()
		logits := net.Forward(x, true)
		_, grad := nn.SoftmaxCrossEntropy(logits, labels)
		net.Backward(grad)
		opt.Step(net.Params())
		acc = nn.Accuracy(logits, labels)
		if acc > 0.98 {
			break
		}
	}
	if acc < 0.9 {
		t.Fatalf("accuracy %.2f after training, want >= 0.9", acc)
	}
}
