package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ebcl"
	"repro/internal/lanes"
	"repro/internal/tensor"
)

// proofCase fills data and ref with an adversarial constant-residual
// candidate and returns its bound eb: references of magnitude about
// 2^refExp (a quarter of them up to 2³⁰ smaller, and none past the largest
// float32, which an exponent of 127 often pins them to) with random signs, eb about
// 2^−ebShift of that magnitude, and residuals spanning spanFrac·2·eb around
// a random centre, the first two pinned to its ends and an eighth of the
// rest too; an element whose data would overflow takes the end of the span
// that points back from its reference, so a reconstruction at the midpoint
// may overflow where the data does not. The float32 rounding of data moves
// the extent the residual pass then finds, which is the one the proof is
// held to.
func proofCase(rng *rand.Rand, data, ref []float32, refExp, ebShift int, spanFrac float64) (eb float64) {
	scale := math.Ldexp(1, refExp)
	eb = math.Ldexp(scale, -ebShift) * (1 + rng.Float64())
	c := eb * (2*rng.Float64() - 1) * math.Ldexp(1, rng.IntN(12))
	half := spanFrac * eb
	for i := range data {
		m := scale * (1 + rng.Float64())
		if rng.IntN(4) == 0 {
			m = math.Ldexp(m, -rng.IntN(31))
		}
		m = min(m, math.MaxFloat32)
		if rng.IntN(2) == 0 {
			m = -m
		}
		ref[i] = float32(m)
		t := c + half*(2*rng.Float64()-1)
		switch {
		case i == 0 || i > 1 && rng.IntN(16) == 0:
			t = c - half
		case i == 1 || rng.IntN(16) == 0:
			t = c + half
		}
		data[i] = float32(float64(ref[i]) + t)
		if math.IsInf(float64(data[i]), 0) {
			// Near the top of the float32 range, the end of the span that
			// points back from the reference keeps the data finite.
			data[i] = float32(float64(ref[i]) + c - math.Copysign(half, m))
		}
	}
	return eb
}

// proofHolds reports whether constantProved accepts the candidate in data
// and ref (proved) and whether lanes.Within then refuses it (miss): the proof
// must never accept what the element-wise check refuses. Candidates whose
// residual is not finite, which the encoder never offers, are proved false.
func proofHolds(data, ref, res []float32, eb float64) (proved, miss bool, span float64) {
	_, r, mag, ok := computeResidual(res, data, ref)
	if !ok || !constantProved(r.Span(), mag, eb) {
		return false, false, r.Span()
	}
	mid := r.Lo + (r.Hi-r.Lo)/2
	return true, !lanes.Within(data, ref, mid, eb), r.Span()
}

// TestConstantResidualProof holds constantProved to lanes.Within on
// adversarial candidates: reference magnitudes from 2⁻¹²⁰ to the largest
// float32, where a reconstruction can overflow, bounds down to 2⁻³⁰ of them, spans anywhere up to 2·eb, within 2⁻²⁴ of it or a hair
// over, and elements pinned to both ends of the span. It must never accept a
// candidate the check refuses, on the lane kernel and on the Go loop. Since a
// proof that accepts nothing would pass that, it must also accept at least a
// quarter of the candidates (it accepts 27 %; half are drawn within 2⁻²⁴ of
// 2·eb or over it, where it cannot), and at least a twelfth with a span over
// 1.99·eb (it accepts 10 %).
func TestConstantResidualProof(t *testing.T) {
	const cases = 40_000
	lanes.BothPaths(func(path string) {
		rng := rand.New(rand.NewPCG(57, 1))
		data, ref, res := make([]float32, 64), make([]float32, 64), make([]float32, 64)
		accepted, edge := 0, 0
		for k := range cases {
			var frac float64
			switch k % 4 {
			case 0:
				frac = rng.Float64()
			case 1:
				frac = 1 - 0.005*rng.Float64()
			case 2:
				frac = 1 - 0x1p-24*rng.Float64()
			default:
				frac = 1 + 0x1p-24*rng.Float64()
			}
			n := 2 + rng.IntN(len(data)-1)
			refExp, ebShift := -120+rng.IntN(248), rng.IntN(31)
			eb := proofCase(rng, data[:n], ref[:n], refExp, ebShift, frac)
			proved, miss, span := proofHolds(data[:n], ref[:n], res, eb)
			if miss {
				t.Fatalf("%s: case %d (n %d, ref 2^%d, eb %g = 2^-%d of it, span %g·eb): proved, but an element misses",
					path, k, n, refExp, eb, ebShift, span/eb)
			}
			if proved {
				accepted++
				if span > 1.99*eb {
					edge++
				}
			}
		}
		t.Logf("%s: %d of %d candidates proved, %d of them with a span over 1.99·eb", path, accepted, cases, edge)
		if accepted < cases/4 || edge < cases/12 {
			t.Errorf("%s: the proof accepts %d of %d candidates, %d over 1.99·eb; want at least %d and %d",
				path, accepted, cases, edge, cases/4, cases/12)
		}
	})
}

// FuzzConstantResidualProof searches for a candidate constantProved accepts
// and lanes.Within refuses, on both lane paths. The inputs pick the
// candidate's shape as TestConstantResidualProof draws it.
func FuzzConstantResidualProof(f *testing.F) {
	f.Add(uint64(1), uint8(30), int8(0), uint8(10), 0.5)
	f.Add(uint64(2), uint8(7), int8(-120), uint8(30), 1.0)
	f.Add(uint64(3), uint8(63), int8(80), uint8(0), 1-0x1p-25)
	f.Add(uint64(4), uint8(9), int8(-3), uint8(14), 0.996)
	f.Add(uint64(5), uint8(16), int8(40), uint8(5), 1+0x1p-25)
	f.Add(uint64(11), uint8(12), int8(127), uint8(4), 0.5)
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, refExp int8, ebShift uint8, frac float64) {
		if !(frac >= 0 && frac <= 1.01) {
			return
		}
		size := 2 + int(n)%63
		exp, shift := max(-120, int(refExp)), int(ebShift)%31
		data, ref, res := make([]float32, size), make([]float32, size), make([]float32, size)
		lanes.BothPaths(func(path string) {
			eb := proofCase(rand.New(rand.NewPCG(seed, 57)), data, ref, exp, shift, frac)
			if _, miss, span := proofHolds(data, ref, res, eb); miss {
				t.Fatalf("%s: ref 2^%d, eb %g = 2^-%d of it, span %g·eb: proved, but an element misses",
					path, exp, eb, shift, span/eb)
			}
		})
	})
}

// TestConstantResidualOverflow holds the proof to a reconstruction that
// overflows: data {MaxFloat32, 4e31} against reference {MaxFloat32, 0} at a
// REL bound of 1e-6. The residual's span fits the bound's arithmetic, but
// fl(MaxFloat32 + mid) is +Inf, so the proof must leave the case to
// lanes.Within, which refuses it on both lane paths, and the encoder must
// ship the tensor through the codec within the bound.
func TestConstantResidualOverflow(t *testing.T) {
	const n, rel = 4096, 1e-6
	data, ref, res := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := 0; i < n; i += 2 {
		data[i], data[i+1] = math.MaxFloat32, 4e31
		ref[i], ref[i+1] = math.MaxFloat32, 0
	}
	rangeD, r, mag, ok := computeResidual(res, data, ref)
	eb := rel * rangeD
	if ebRes, fits := residualBound(eb, mag); !ok || !fits || r.Span() > 2*ebRes {
		t.Fatalf("the case is no constant-residual candidate: span %g, eb %g", r.Span(), eb)
	}
	if constantProved(r.Span(), mag, eb) {
		t.Errorf("the proof accepts span %g, mag %g at eb %g, where fl(MaxFloat32 + mid) overflows", r.Span(), mag, eb)
	}
	lanes.BothPaths(func(path string) {
		if mid, ok := constantResidual(data, ref, r, mag, eb); ok {
			t.Errorf("%s: constant residual %g accepted; fl(MaxFloat32 + mid) = %g", path, mid, float32(math.MaxFloat32)+mid)
		}
	})

	sd, rd := tensor.NewStateDict(), tensor.NewStateDict()
	sd.Add("fc.weight", tensor.KindWeight, tensor.FromData(data, n))
	rd.Add("fc.weight", tensor.KindWeight, tensor.FromData(ref, n))
	for _, chunkElems := range []int{-1, 1024} {
		stream, stats, err := Compress(sd, Options{LossyParams: ebcl.Rel(rel), ChunkElems: chunkElems, Reference: rd, RefEpoch: 1})
		if err != nil {
			t.Fatalf("ChunkElems %d: %v", chunkElems, err)
		}
		if stats.ConstantResiduals != 0 {
			t.Errorf("ChunkElems %d: %d constant residuals, want 0", chunkElems, stats.ConstantResiduals)
		}
		got, _, err := DecompressWith(context.Background(), nil, stream, DecodeOptions{Reference: rd, RefEpoch: 1})
		if err != nil {
			t.Fatalf("ChunkElems %d: %v", chunkElems, err)
		}
		if e := ebcl.MaxAbsError(data, got.Get("fc.weight").Data); !(e <= eb*(1+1e-6)) {
			t.Errorf("ChunkElems %d: max error %g, bound %g", chunkElems, e, eb)
		}
	}
}
