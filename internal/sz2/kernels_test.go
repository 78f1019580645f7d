package sz2

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/ebcl"
	"repro/internal/lanes"
)

// checkScores holds scoreBlockLanes to scoreBlock on one block, scoring every
// quad and the sampled quads (sampleStride): the line and the three scores
// bit for bit, and with them the kind and coefficients chooseBlockPredictor
// derives.
func checkScores(t *testing.T, block []float32, prev float64) {
	t.Helper()
	f := widen(make([]float64, len(block)), block)
	for _, stride := range []int{1, sampleStride} {
		want := [5]float64{}
		want[0], want[1], want[2], want[3], want[4] = scoreBlock(f, prev, stride)
		got := [5]float64{}
		got[0], got[1], got[2], got[3], got[4] = scoreBlockLanes(block, prev, stride)
		for i, name := range []string{"a", "b", "Lorenzo error", "regression error", "zero-line error"} {
			// Which of two NaN payloads a sum carries depends on operand order
			// the compiler picks; a NaN score only fails a comparison, and
			// regression (the one use of a and b) needs finite scores.
			if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
				continue
			}
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d prev=%v stride %d: %s is %v (%#x) on AVX2 lanes, %v (%#x) on the Go loop",
					len(block), prev, stride, name, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestChooseBlockPredictorLanes: the two scoring kernels against the Go
// loops on noisy lines (the fitted line wins), weight-like noise (the zero
// line wins),
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
			if kind, _, _ := chooseBlockPredictor(line, nil, 0, 1); kind == predRegression {
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

// TestBlockPredictorPolicy: on both paths, i.i.d. Laplace blocks take the
// zero line (no coefficients to pay for), a ramp under small noise keeps its
// fitted line, a random walk keeps Lorenzo, and a short tail block is priced
// with its own 2^(64/n). Every case also goes through the codec: the block
// kind runs in the stream are the kinds picked here, only fitted-line blocks
// store coefficients (nonzero ones), and the bound holds.
func TestBlockPredictorPolicy(t *testing.T) {
	lineCharge := func(n int) float64 { return math.Exp2(64 / float64(n)) }
	if fullBlockCharge != lineCharge(blockSize) {
		t.Fatalf("fullBlockCharge %v, 2^(64/%d) %v", fullBlockCharge, blockSize, lineCharge(blockSize))
	}
	const eb = 1e-3
	rng := rand.New(rand.NewPCG(35, 35))
	laplace := func() float64 { return 0.03 * (rng.ExpFloat64() - rng.ExpFloat64()) }
	gen := func(n int, at func(i int, prev float64) float64) []float32 {
		out, v := make([]float32, n), 0.0
		for i := range out {
			v = at(i, v)
			out[i] = float32(v)
		}
		return out
	}
	// The tail: a ramp whose fitted line saves more than a full block's
	// charge over the zero line, but less than a 40-element block's.
	tail := gen(40, func(i int, _ float64) float64 { return 0.0035*float64(i-20) + laplace() })
	f := widen(make([]float64, len(tail)), tail)
	_, _, lorenzoErr, regErr, zeroErr := scoreBlock(f, 0, 1)
	if !(regErr*fullBlockCharge < zeroErr && zeroErr < regErr*lineCharge(len(tail)) && zeroErr < lorenzoErr) {
		t.Fatalf("tail scores Lorenzo %v, line %v, zero %v: the case does not separate the two charges", lorenzoErr, regErr, zeroErr)
	}

	cases := []struct {
		name string
		data []float32
		kind byte
	}{
		{"i.i.d. Laplace", gen(4*blockSize, func(int, float64) float64 { return laplace() }), predZero},
		{"ramp plus small noise", gen(4*blockSize, func(i int, _ float64) float64 { return 1e-3*float64(i) + 1e-4*rng.NormFloat64() }), predRegression},
		{"random walk", gen(4*blockSize, func(_ int, v float64) float64 { return v + 1e-3*rng.NormFloat64() }), predLorenzo},
		{"short tail", append(gen(blockSize, func(int, float64) float64 { return laplace() }), tail...), predZero},
	}
	lanes.BothPaths(func(path string) {
		for _, tc := range cases {
			stream, err := NewCompressor().CompressAppend(nil, tc.data, ebcl.Abs(eb))
			if err != nil {
				t.Fatal(err)
			}
			var sec ebcl.Sections
			out, _, err := sec.Open(format, nil, stream)
			if err != nil {
				t.Fatal(err)
			}
			if !sec.Runs {
				t.Fatalf("%s: %s stream is not LayoutKindRuns", path, tc.name)
			}
			nBlocks, coef := (len(tc.data)+blockSize-1)/blockSize, 0
			for b := 0; b < nBlocks; {
				kind, run, ok := sec.NextKinds(nBlocks - b)
				if !ok {
					t.Fatalf("%s: %s: bad kind run at block %d", path, tc.name, b)
				}
				for end := b + run; b < end; b++ {
					if kind != tc.kind {
						t.Errorf("%s: %s block %d is kind %d, want %d", path, tc.name, b, kind, tc.kind)
					}
					if kind != predRegression {
						continue
					}
					if a, bb := sec.Coeffs.At(coef), sec.Coeffs.At(coef+1); a == 0 && bb == 0 {
						t.Errorf("%s: %s block %d is a fitted line with zero coefficients", path, tc.name, b)
					}
					coef += 2
				}
			}
			if len(sec.Kinds) != 0 || coef != sec.Coeffs.Len() {
				t.Errorf("%s: %s: %d kind bytes and %d of %d coefficients left over", path, tc.name, len(sec.Kinds), sec.Coeffs.Len()-coef, sec.Coeffs.Len())
			}
			sec.Close()
			if out, err = NewCompressor().DecompressInto(out, stream); err != nil {
				t.Fatal(err)
			}
			if got := ebcl.MaxAbsError(tc.data, out); got > eb {
				t.Errorf("%s: %s max error %g over the bound %g", path, tc.name, got, eb)
			}
		}
	})
}
