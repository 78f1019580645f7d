package sz2

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/lanes"
)

// checkScores holds scoreBlockLanes to scoreBlock on one block: the line and
// both scores bit for bit, and with them the kind and coefficients
// chooseBlockPredictor derives.
func checkScores(t *testing.T, block []float32, prev float64) {
	t.Helper()
	f := widen(make([]float64, len(block)), block)
	want := [4]float64{}
	want[0], want[1], want[2], want[3] = scoreBlock(f, prev)
	got := [4]float64{}
	got[0], got[1], got[2], got[3] = scoreBlockLanes(block, prev)
	for i, name := range []string{"a", "b", "Lorenzo error", "regression error"} {
		// Which of two NaN payloads a sum carries depends on operand order
		// the compiler picks; a NaN score only fails a comparison, and
		// regression (the one use of a and b) needs finite scores.
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d prev=%v: %s is %v (%#x) on AVX2 lanes, %v (%#x) on the Go loop",
				len(block), prev, name, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestChooseBlockPredictorLanes: the two scoring kernels against the Go
// loops on noisy lines (regression wins), weight-like noise (Lorenzo wins),
// values of wildly different magnitudes and blocks carrying NaN, ±Inf, ±0
// or a denormal at index 0, inside a lane and in the tail, for every length
// from one quad to four and a block's.
func TestChooseBlockPredictorLanes(t *testing.T) {
	if !lanes.On() {
		t.Skip("no AVX2 kernels on this CPU")
	}
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, negZero, math.Float32frombits(1)}
	rng := rand.New(rand.NewPCG(27, 27))
	lengths := []int{100, 255, 256}
	for n := 4; n <= 16; n++ {
		lengths = append(lengths, n)
	}
	regression := 0
	for _, n := range lengths {
		a, b := rng.NormFloat64()*1e-2, rng.NormFloat64()
		line := make([]float32, n)
		noise := make([]float32, n)
		// Sums of a few hundred float32 weights are exact in float64, where
		// the order lanes are combined in cannot show; magnitudes 2^±60 apart
		// make every sum round.
		wide := make([]float32, n)
		for i := range line {
			line[i] = float32(a*float64(i) + b + 1e-4*rng.NormFloat64())
			noise[i] = float32(0.05 * rng.NormFloat64())
			wide[i] = float32(math.Ldexp(rng.NormFloat64(), rng.IntN(121)-60))
		}
		for _, prev := range []float64{0, float64(line[0]), -0.5, math.Copysign(0, -1), math.NaN()} {
			checkScores(t, line, prev)
			checkScores(t, noise, prev)
			checkScores(t, wide, prev)
		}
		if n >= 8 {
			if kind, _, _ := chooseBlockPredictor(line, nil, 0); kind == predRegression {
				regression++
			}
		}
		for _, v := range specials {
			for _, at := range []int{0, 1, 2, 3, 6, n - 1} {
				if at >= n {
					continue
				}
				block := slices.Clone(line)
				block[at] = v
				checkScores(t, block, 0.25)
			}
		}
	}
	if regression == 0 {
		t.Fatal("no noisy line chose regression: the regression path went unchecked")
	}
}

// FuzzChooseBlockPredictor: the scoring kernels equal the Go loops on any
// block of 4 to 256 elements (the raw bytes as float32s) and Lorenzo seed.
func FuzzChooseBlockPredictor(f *testing.F) {
	if !lanes.On() {
		f.Skip("no AVX2 kernels on this CPU")
	}
	le := func(vs ...float32) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
		return out
	}
	f.Add(le(1, 2, 3, 4, 5, 6, 7, 8, 9), 0.0)
	f.Add(le(0.1, -0.2, 0.05, 0.3, -0.1, 0, 0.2, -0.3), 0.5)
	f.Add(le(float32(math.NaN()), 1, 2, 3, float32(math.Inf(1)), 5, 6, 7, 8, float32(math.Copysign(0, -1))), math.NaN())
	f.Fuzz(func(t *testing.T, raw []byte, prev float64) {
		block := make([]float32, min(len(raw)/4, 256))
		if len(block) < 4 {
			t.Skip("the kernels take whole quads")
		}
		for i := range block {
			block[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		checkScores(t, block, prev)
	})
}
