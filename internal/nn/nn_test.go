package nn

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/tensor"
)

// numericalGrad estimates dLoss/dx[i] by central differences, where loss is
// the sum of layer outputs weighted by fixed random coefficients.
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(99, 100))

	forwardLoss := func() (float64, *tensor.Tensor, []float32) {
		y := layer.Forward(x, true)
		w := make([]float32, y.NumElems())
		r := rand.New(rand.NewPCG(1, 1)) // fixed weights across calls
		for i := range w {
			w[i] = float32(r.NormFloat64())
		}
		var loss float64
		for i, v := range y.Data {
			loss += float64(v) * float64(w[i])
		}
		return loss, y, w
	}

	// Analytic gradients.
	_, y, w := forwardLoss()
	dy := tensor.New(y.Shape...)
	for i := range dy.Data {
		dy.Data[i] = w[i]
	}
	for _, p := range layer.Params() {
		if p.Grad != nil {
			p.Grad.Fill(0)
		}
	}
	dx := layer.Backward(dy)

	const eps = 1e-3
	lossAt := func() float64 {
		loss, _, _ := forwardLoss()
		return loss
	}

	// Check input gradient on a sample of positions.
	idxs := samplePositions(rng, x.NumElems(), 12)
	for _, i := range idxs {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossAt()
		x.Data[i] = orig - eps
		lm := lossAt()
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		got := float64(dx.Data[i])
		if math.Abs(num-got) > tol*(1+math.Abs(num)) {
			t.Errorf("%T: dx[%d] numeric %.5f analytic %.5f", layer, i, num, got)
		}
	}
	// Check parameter gradients.
	for _, p := range layer.Params() {
		if p.Grad == nil {
			continue
		}
		pidxs := samplePositions(rng, p.Val.NumElems(), 8)
		for _, i := range pidxs {
			orig := p.Val.Data[i]
			p.Val.Data[i] = orig + float32(eps)
			lp := lossAt()
			p.Val.Data[i] = orig - float32(eps)
			lm := lossAt()
			p.Val.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			got := float64(p.Grad.Data[i])
			if math.Abs(num-got) > tol*(1+math.Abs(num)) {
				t.Errorf("%T: %s grad[%d] numeric %.5f analytic %.5f", layer, p.Name, i, num, got)
			}
		}
	}
}

func samplePositions(rng *rand.Rand, n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, k)
	for i := range out {
		out[i] = rng.IntN(n)
	}
	return out
}

func randomInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	l := NewConv2D(rng, "conv", 2, 3, 3, 1, 1)
	checkLayerGradients(t, l, randomInput(rng, 2, 2, 5, 5), 1e-2)
}

func TestConv2DStride2Gradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	l := NewConv2D(rng, "conv_s2", 2, 4, 3, 2, 1)
	checkLayerGradients(t, l, randomInput(rng, 2, 2, 6, 6), 1e-2)
}

func TestDepthwiseConvGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	l := NewDepthwiseConv2D(rng, "dw", 3, 3, 1, 1)
	checkLayerGradients(t, l, randomInput(rng, 2, 3, 5, 5), 1e-2)
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	l := NewDense(rng, "fc", 7, 4)
	checkLayerGradients(t, l, randomInput(rng, 3, 7), 1e-2)
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	l := NewBatchNorm2D("bn", 3)
	// Batch norm's running-stat update inside Forward perturbs nothing the
	// loss sees, so central differences remain valid.
	checkLayerGradients(t, l, randomInput(rng, 4, 3, 3, 3), 2e-2)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	l := NewReLU()
	x := randomInput(rng, 2, 3, 4, 4)
	// Keep values away from the kink for stable numerics.
	for i := range x.Data {
		if v := math.Abs(float64(x.Data[i])); v < 0.05 {
			x.Data[i] += 0.2
		}
	}
	checkLayerGradients(t, l, x, 1e-2)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	l := NewMaxPool2D(2)
	checkLayerGradients(t, l, randomInput(rng, 2, 2, 4, 4), 1e-2)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	l := NewGlobalAvgPool()
	checkLayerGradients(t, l, randomInput(rng, 2, 3, 4, 4), 1e-2)
}

func TestResidualGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	body := []Layer{
		NewConv2D(rng, "res.conv1", 2, 2, 3, 1, 1),
		NewReLU(),
	}
	l := NewResidual(body, nil)
	checkLayerGradients(t, l, randomInput(rng, 2, 2, 4, 4), 1e-2)
}

func TestResidualProjectionGradients(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 11))
	body := []Layer{NewConv2D(rng, "res2.conv1", 2, 4, 3, 2, 1)}
	skip := []Layer{NewConv2D(rng, "res2.down", 2, 4, 1, 2, 0)}
	l := NewResidual(body, skip)
	checkLayerGradients(t, l, randomInput(rng, 2, 2, 4, 4), 1e-2)
}

func TestGemmAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, dims := range [][3]int{{3, 4, 5}, {1, 7, 2}, {64, 32, 48}, {100, 1, 100}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
		}
		for i := range b {
			b[i] = float32(rng.NormFloat64())
		}
		want := make([]float32, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += a[i*k+p] * b[p*n+j]
				}
				want[i*n+j] = s
			}
		}
		got := make([]float32, m*n)
		Gemm(a, m, k, b, n, got)
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-3 {
				t.Fatalf("%v: Gemm[%d] = %v want %v", dims, i, got[i], want[i])
			}
		}
		// GemmTA: Aᵀ·B with A stored k×m.
		at := make([]float32, k*m)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				at[p*m+i] = a[i*k+p]
			}
		}
		gotTA := make([]float32, m*n)
		GemmTA(at, k, m, b, n, gotTA, false)
		for i := range want {
			if math.Abs(float64(gotTA[i]-want[i])) > 1e-3 {
				t.Fatalf("%v: GemmTA[%d] = %v want %v", dims, i, gotTA[i], want[i])
			}
		}
		// GemmTB: A·Bᵀ with B stored n×k.
		bt := make([]float32, n*k)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				bt[j*k+p] = b[p*n+j]
			}
		}
		gotTB := make([]float32, m*n)
		GemmTB(a, m, k, bt, n, gotTB, false)
		for i := range want {
			if math.Abs(float64(gotTB[i]-want[i])) > 1e-3 {
				t.Fatalf("%v: GemmTB[%d] = %v want %v", dims, i, gotTB[i], want[i])
			}
		}
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.FromData([]float32{2, 0, 0, 0, 3, 0}, 2, 3)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 1})
	if loss < 0 || loss > 1 {
		t.Fatalf("loss %v implausible for confident correct logits", loss)
	}
	// Gradient rows must sum to ~0 (softmax property).
	for s := 0; s < 2; s++ {
		var sum float64
		for j := 0; j < 3; j++ {
			sum += float64(grad.Data[s*3+j])
		}
		if math.Abs(sum) > 1e-6 {
			t.Fatalf("grad row %d sums to %v", s, sum)
		}
	}
	// Numerical check on one logit.
	const eps = 1e-3
	logits.Data[1] += eps
	lp, _ := SoftmaxCrossEntropy(logits, []int{0, 1})
	logits.Data[1] -= 2 * eps
	lm, _ := SoftmaxCrossEntropy(logits, []int{0, 1})
	num := (lp - lm) / (2 * eps)
	if math.Abs(num-float64(grad.Data[1])) > 1e-3 {
		t.Fatalf("numeric %v analytic %v", num, grad.Data[1])
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromData([]float32{1, 2, 0, 5, 1, 1}, 2, 3)
	if got := Accuracy(logits, []int{1, 0}); got != 1 {
		t.Fatalf("accuracy = %v want 1", got)
	}
	if got := Accuracy(logits, []int{0, 0}); got != 0.5 {
		t.Fatalf("accuracy = %v want 0.5", got)
	}
}

func TestSGDMomentumStep(t *testing.T) {
	p := &Param{Name: "w", Val: tensor.FromData([]float32{1}, 1), Grad: tensor.FromData([]float32{2}, 1)}
	opt := NewSGD(0.1, 0.9, 0)
	opt.Step([]*Param{p})
	if math.Abs(float64(p.Val.Data[0])-0.8) > 1e-6 {
		t.Fatalf("after step 1: %v want 0.8", p.Val.Data[0])
	}
	// Second step with same gradient: velocity = 0.9*2+2 = 3.8.
	opt.Step([]*Param{p})
	if math.Abs(float64(p.Val.Data[0])-(0.8-0.38)) > 1e-6 {
		t.Fatalf("after step 2: %v want 0.42", p.Val.Data[0])
	}
}

func TestSGDSkipsNonTrainable(t *testing.T) {
	p := &Param{Name: "running", Val: tensor.FromData([]float32{5}, 1)}
	NewSGD(1, 0, 0).Step([]*Param{p})
	if p.Val.Data[0] != 5 {
		t.Fatal("non-trainable param was updated")
	}
}

func TestStateDictRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	net := NewNetwork(
		NewConv2D(rng, "c1", 1, 2, 3, 1, 1),
		NewBatchNorm2D("bn1", 2),
		NewReLU(),
		NewFlatten(),
		NewDense(rng, "fc", 2*4*4, 3),
	)
	sd := net.StateDict()
	// Kinds present: weights, biases, running stats, scalar meta.
	kinds := map[tensor.Kind]bool{}
	for _, e := range sd.Entries() {
		kinds[e.Kind] = true
	}
	for _, k := range []tensor.Kind{tensor.KindWeight, tensor.KindBias, tensor.KindRunningStat, tensor.KindScalarMeta} {
		if !kinds[k] {
			t.Fatalf("state dict missing kind %v", k)
		}
	}
	// Perturb, reload, verify restoration.
	for _, p := range net.Params() {
		for i := range p.Val.Data {
			p.Val.Data[i] += 1
		}
	}
	if err := net.LoadStateDict(sd); err != nil {
		t.Fatal(err)
	}
	sd2 := net.StateDict()
	d, err := sd2.MaxAbsDiff(sd)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("reload not exact: %v", d)
	}
	// Missing entry errors.
	bad := tensor.NewStateDict()
	if err := net.LoadStateDict(bad); err == nil {
		t.Fatal("want error for missing entries")
	}
}

func TestNetworkLearnsXORLikeTask(t *testing.T) {
	// End-to-end sanity: a small dense net must fit a nonlinear synthetic
	// task, proving forward/backward/SGD compose correctly.
	rng := rand.New(rand.NewPCG(15, 16))
	net := NewNetwork(
		NewDense(rng, "fc1", 2, 16),
		NewReLU(),
		NewDense(rng, "fc2", 16, 2),
	)
	opt := NewSGD(0.1, 0.9, 0)
	n := 128
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x.Data[i*2], x.Data[i*2+1] = float32(a), float32(b)
		if (a > 0) != (b > 0) {
			labels[i] = 1
		}
	}
	var acc float64
	for epoch := 0; epoch < 200; epoch++ {
		net.ZeroGrads()
		logits := net.Forward(x, true)
		_, grad := SoftmaxCrossEntropy(logits, labels)
		net.Backward(grad)
		opt.Step(net.Params())
		acc = Accuracy(logits, labels)
		if acc > 0.95 {
			break
		}
	}
	if acc < 0.9 {
		t.Fatalf("XOR task accuracy %.2f after training, want >= 0.9", acc)
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	bn := NewBatchNorm2D("bn", 1)
	// Feed batches with mean 3, std 2; running stats should approach them.
	for i := 0; i < 200; i++ {
		x := tensor.New(8, 1, 4, 4)
		for j := range x.Data {
			x.Data[j] = float32(3 + 2*rng.NormFloat64())
		}
		bn.Forward(x, true)
	}
	if m := float64(bn.RunMean.Val.Data[0]); math.Abs(m-3) > 0.3 {
		t.Fatalf("running mean %v want ~3", m)
	}
	if v := float64(bn.RunVar.Val.Data[0]); math.Abs(v-4) > 1.2 {
		t.Fatalf("running var %v want ~4", v)
	}
	if bn.NumBatches.Val.Data[0] != 200 {
		t.Fatalf("num_batches %v want 200", bn.NumBatches.Val.Data[0])
	}
	// Eval mode must use running stats (output mean ≈ beta = 0).
	x := tensor.New(4, 1, 4, 4)
	for j := range x.Data {
		x.Data[j] = float32(3 + 2*rng.NormFloat64())
	}
	y := bn.Forward(x, false)
	var mean float64
	for _, v := range y.Data {
		mean += float64(v)
	}
	mean /= float64(len(y.Data))
	if math.Abs(mean) > 0.3 {
		t.Fatalf("eval-mode output mean %v want ~0", mean)
	}
}

func BenchmarkGemm256(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	const m, k, n = 256, 256, 256
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range bb {
		bb[i] = float32(rng.NormFloat64())
	}
	b.SetBytes(int64(m) * k * n / 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(a, m, k, bb, n, c)
	}
}
