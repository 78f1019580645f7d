// Package eblctest provides the shared conformance suite run against every
// error-bounded lossy compressor in this module. Each EBLC package has a
// thin test file invoking RunConformance, so all compressors are held to
// the same contract: round-trip decodability, error-bound compliance,
// sane ratios on weight-like data, and graceful handling of degenerate and
// corrupt inputs.
package eblctest

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ebcl"
	"repro/internal/lanes"
)

// Options tunes the suite per compressor.
type Options struct {
	// StrictBound asserts max error <= ebAbs. ZFP's fixed-precision mode has
	// no formal bound (paper §V-D1), so it runs with a loose multiple.
	StrictBound bool
	// LooseFactor multiplies the bound for non-strict compressors.
	LooseFactor float64
	// MinRatioAt1e2 is the minimum acceptable compression ratio on
	// weight-like data at a relative bound of 1e-2.
	MinRatioAt1e2 float64
}

// WeightLike synthesizes n values shaped like flattened FL model weights:
// a sharp near-zero mass (Laplacian-ish) plus sparse large-magnitude
// outliers, matching the "spiky" profile of paper Figure 2(a)/3.
func WeightLike(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		// Laplace(0, 0.03) via difference of exponentials.
		v := 0.03 * (rng.ExpFloat64() - rng.ExpFloat64())
		if rng.Float64() < 0.002 {
			v += rng.NormFloat64() * 0.5 // occasional outlier
		}
		if v > 1 {
			v = 1
		}
		if v < -1 {
			v = -1
		}
		out[i] = float32(v)
	}
	return out
}

// SmoothLike synthesizes a smooth band-limited signal, the shape EBLCs were
// designed for (paper Figure 2(b)).
func SmoothLike(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	phase := rng.Float64() * 2 * math.Pi
	for i := range out {
		x := float64(i) / float64(n)
		out[i] = float32(math.Sin(2*math.Pi*5*x+phase) + 0.4*math.Sin(2*math.Pi*23*x) + 0.05*rng.NormFloat64())
	}
	return out
}

// RunConformance executes the shared suite.
func RunConformance(t *testing.T, c ebcl.Compressor, opt Options) {
	t.Helper()
	if opt.LooseFactor == 0 {
		opt.LooseFactor = 8
	}

	t.Run("EmptyInput", func(t *testing.T) {
		stream, err := c.CompressAppend(nil, nil, ebcl.Rel(1e-2))
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := c.DecompressFinite(nil, stream)
		if err != nil || len(out) != 0 {
			t.Fatalf("len=%d err=%v", len(out), err)
		}
	})

	t.Run("ConstantInput", func(t *testing.T) {
		data := make([]float32, 1000)
		for i := range data {
			data[i] = 3.25
		}
		stream, err := c.CompressAppend(nil, data, ebcl.Rel(1e-2))
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := c.DecompressFinite(nil, stream)
		if err != nil || len(out) != len(data) {
			t.Fatalf("len=%d err=%v", len(out), err)
		}
		// A constant array has zero range, so any reconstruction error is a
		// bug for every compressor, including ZFP.
		for i, v := range out {
			if math.Abs(float64(v)-3.25) > 1e-5 {
				t.Fatalf("element %d: %v != 3.25", i, v)
			}
		}
		if len(stream) > 64 {
			t.Errorf("constant stream is %d bytes, want tiny", len(stream))
		}
	})

	t.Run("SingleElement", func(t *testing.T) {
		stream, err := c.CompressAppend(nil, []float32{-0.75}, ebcl.Abs(1e-3))
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := c.DecompressFinite(nil, stream)
		if err != nil || len(out) != 1 {
			t.Fatalf("len=%d err=%v", len(out), err)
		}
		if math.Abs(float64(out[0])+0.75) > 1e-2 {
			t.Fatalf("value %v", out[0])
		}
	})

	t.Run("BoundCompliance", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(42, 1))
		for _, gen := range []struct {
			name string
			data []float32
		}{
			{"weights", WeightLike(rng, 20000)},
			{"smooth", SmoothLike(rng, 20000)},
		} {
			for _, eb := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
				stream, err := c.CompressAppend(nil, gen.data, ebcl.Rel(eb))
				if err != nil {
					t.Fatalf("%s eb=%g: %v", gen.name, eb, err)
				}
				out, _, err := c.DecompressFinite(nil, stream)
				if err != nil {
					t.Fatalf("%s eb=%g decompress: %v", gen.name, eb, err)
				}
				if len(out) != len(gen.data) {
					t.Fatalf("%s eb=%g: length %d != %d", gen.name, eb, len(out), len(gen.data))
				}
				ebAbs := eb * ebcl.ValueRange(gen.data)
				limit := ebAbs
				if !opt.StrictBound {
					limit = ebAbs * opt.LooseFactor
				}
				if got := ebcl.MaxAbsError(gen.data, out); got > limit*(1+1e-6) {
					t.Fatalf("%s eb=%g: max error %g exceeds %g", gen.name, eb, got, limit)
				}
			}
		}
	})

	t.Run("AbsoluteMode", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(7, 7))
		data := WeightLike(rng, 5000)
		stream, err := c.CompressAppend(nil, data, ebcl.Abs(0.005))
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := c.DecompressFinite(nil, stream)
		if err != nil {
			t.Fatal(err)
		}
		limit := 0.005
		if !opt.StrictBound {
			limit *= opt.LooseFactor
		}
		if got := ebcl.MaxAbsError(data, out); got > limit*(1+1e-6) {
			t.Fatalf("ABS mode: max error %g exceeds %g", got, limit)
		}
	})

	t.Run("RatioOnWeights", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(3, 9))
		data := WeightLike(rng, 1<<17)
		stream, err := c.CompressAppend(nil, data, ebcl.Rel(1e-2))
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(4*len(data)) / float64(len(stream))
		if ratio < opt.MinRatioAt1e2 {
			t.Errorf("ratio %.2f at rel 1e-2, want >= %.2f", ratio, opt.MinRatioAt1e2)
		}
		t.Logf("%s ratio on weights @1e-2: %.2f", c.Name(), ratio)
	})

	t.Run("TighterBoundLowerRatio", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(11, 4))
		data := WeightLike(rng, 1<<16)
		var prev float64 = math.Inf(1)
		for _, eb := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
			stream, err := c.CompressAppend(nil, data, ebcl.Rel(eb))
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(4*len(data)) / float64(len(stream))
			// Allow small non-monotonic wiggle (10%) but not inversions.
			if ratio > prev*1.1 {
				t.Errorf("ratio %.2f at eb=%g exceeds looser bound's %.2f", ratio, eb, prev)
			}
			prev = ratio
		}
	})

	t.Run("InvalidParams", func(t *testing.T) {
		data := []float32{1, 2, 3}
		if _, err := c.CompressAppend(nil, data, ebcl.Rel(0)); err == nil {
			t.Error("zero relative bound should fail")
		}
		if _, err := c.CompressAppend(nil, data, ebcl.Abs(-1)); err == nil {
			t.Error("negative absolute bound should fail")
		}
	})

	t.Run("CorruptStream", func(t *testing.T) {
		for _, junk := range [][]byte{nil, {1, 2}, make([]byte, 16)} {
			if _, _, err := c.DecompressFinite(nil, junk); err == nil {
				t.Errorf("junk %v decoded without error", junk)
			}
		}
		// A valid stream with a flipped magic must be rejected.
		rng := rand.New(rand.NewPCG(1, 1))
		stream, err := c.CompressAppend(nil, WeightLike(rng, 256), ebcl.Rel(1e-2))
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), stream...)
		bad[0] ^= 0xFF
		if _, _, err := c.DecompressFinite(nil, bad); err == nil {
			t.Error("flipped magic decoded without error")
		}
	})

	t.Run("HostileFrames", func(t *testing.T) {
		// Damage aimed at what a decoder trusts: where the stream ends, how
		// many elements or bytes a field declares, the stored bound. The
		// stream is small enough to hit every offset, so every header field
		// and section boundary is covered whatever the codec's frame is.
		// Nothing may panic or decode to a length the header does not state.
		data := WeightLike(rand.New(rand.NewPCG(17, 71)), 700)
		for i := 256; i < 512; i++ {
			data[i] = float32(i) / 1000 // a ramp: regression blocks, coefficients
		}
		data[600] = 900 // outside the code range: an escape literal
		stream, err := c.CompressAppend(nil, data, ebcl.Abs(1e-3))
		if err != nil {
			t.Fatal(err)
		}
		magic := c.Magic()
		// decode patches stream at off (truncating there when patch is nil).
		decode := func(what string, mustErr bool, off int, patch ...byte) {
			t.Helper()
			bad := append(append([]byte(nil), stream[:off]...), patch...)
			if patch != nil {
				bad = append(bad, stream[min(off+len(patch), len(stream)):]...)
			}
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s at %d: decoder panicked: %v", what, off, p)
				}
			}()
			out, _, err := c.DecompressFinite(nil, bad)
			if n, _, _, _ := ebcl.ParseHeader(bad, magic); err == nil && (mustErr || n != len(out)) {
				t.Fatalf("%s at %d: decoded %d elements (header: %d), want an error", what, off, len(out), n)
			}
		}
		for off := range stream {
			decode("truncation", true, off)
			decode("byte raised to 0xff", false, off, 0xFF)
			decode("length 2^63", false, off, binary.AppendUvarint(nil, 1<<63)...)
			decode("length MaxInt64", false, off, binary.AppendUvarint(nil, math.MaxInt64)...)
		}
		for _, n := range []uint32{701, 1401, ebcl.MaxElements, ebcl.MaxElements + 1, math.MaxUint32} {
			decode("element count", n > ebcl.MaxElements, 4, binary.LittleEndian.AppendUint32(nil, n)...)
		}
		for _, eb := range []float64{math.NaN(), 0, -1e-3, math.Inf(1)} {
			decode("stored bound", false, 9, binary.LittleEndian.AppendUint64(nil, math.Float64bits(eb))...)
		}
	})

	t.Run("DecoderVerdict", func(t *testing.T) {
		// The decoder's verdict (DecompressFinite's AbsMax) is the largest magnitude
		// of what it wrote, on both lane paths: lanes.Scan's, bit for bit,
		// on clean streams, on streams of non-finite and overflowing values,
		// on every stream a raised byte or a huge stored bound leaves
		// decodable, and on the degenerate layouts.
		rng := rand.New(rand.NewPCG(51, 15))
		special := WeightLike(rng, 1500)
		special[3], special[700], special[1400] = float32(math.NaN()), float32(math.Inf(1)), -3e38
		special[1401] = 3e38
		var streams [][]byte
		for _, data := range [][]float32{WeightLike(rng, 3000), SmoothLike(rng, 3000), special, {2.5, 2.5, 2.5}, nil} {
			for _, p := range []ebcl.Params{ebcl.Rel(1e-2), ebcl.Abs(1e-3)} {
				stream, err := c.CompressAppend(nil, data, p)
				if err != nil {
					continue // a bound the data cannot resolve (a NaN under REL)
				}
				streams = append(streams, stream)
				for off := range min(len(stream), 300) {
					bad := slices.Clone(stream)
					bad[off] = 0xff
					streams = append(streams, bad)
				}
				if len(stream) >= 17 {
					huge := slices.Clone(stream)
					binary.LittleEndian.PutUint64(huge[9:], math.Float64bits(1e37))
					streams = append(streams, huge)
				}
			}
		}
		lanes.BothPaths(func(path string) {
			for i, stream := range streams {
				out, m, err := c.DecompressFinite(nil, stream)
				if err != nil {
					continue
				}
				var want lanes.AbsMax
				if len(out) > 0 {
					want = lanes.AbsMax(lanes.Scan(out).AbsBits)
				}
				if m != want {
					t.Fatalf("%s: stream %d: verdict bits %#x, a scan of the %d values %#x", path, i, m, len(out), want)
				}
			}
		})
	})

	t.Run("BoundUtilization", func(t *testing.T) {
		// A codec with stage timers (sz2, sz3) holds each full-layout blob's
		// worst error over its bound for the caller (ebcl.Hold), which
		// records it exactly once, on both lane paths: the largest |x − x̂|
		// the decode shows, at most 1. An input written in the empty or
		// constant layout observes nothing; szx and zfp have no timers and
		// export none.
		tm := c.StageTimers()
		if tm == nil {
			return
		}
		h := tm.Utilization
		rng := rand.New(rand.NewPCG(54, 45))
		special := WeightLike(rng, 1500)
		special[3], special[700] = float32(math.NaN()), float32(math.Inf(-1))
		special[1400] = 900 // outside the code range: an escape literal
		corpus := [][]float32{WeightLike(rng, 3000), SmoothLike(rng, 3000), WeightLike(rng, 257), special, {2.5, 2.5, 2.5}, nil}
		lanes.BothPaths(func(path string) {
			for i, data := range corpus {
				for _, p := range []ebcl.Params{ebcl.Rel(1e-2), ebcl.Abs(1e-3)} {
					n0, s0 := h.Count(), h.Sum()
					var held ebcl.Held
					stream, err := c.CompressAppend(nil, data, ebcl.Hold(p, &held))
					if err != nil {
						continue // a bound the data cannot resolve (a NaN under REL)
					}
					held.Record(tm)
					_, layout, _, err := ebcl.ParseHeader(stream, c.Magic())
					if err != nil {
						t.Fatal(err)
					}
					got := h.Count() - n0
					if layout < ebcl.LayoutFull {
						if got != 0 {
							t.Fatalf("%s: input %d %v: layout %d observed %d times", path, i, p, layout, got)
						}
						continue
					}
					if got != 1 {
						t.Fatalf("%s: input %d %v: %d observations, want 1", path, i, p, got)
					}
					eb, _ := c.ResolvedBound(stream)
					out, _, err := c.DecompressFinite(nil, stream)
					if err != nil {
						t.Fatal(err)
					}
					want := ebcl.MaxAbsError(data, out) / eb
					if u := h.Sum() - s0; !(want <= 1) || math.Abs(u-want) > 1e-9*max(1, s0) {
						t.Fatalf("%s: input %d %v: utilization %v, the decode shows %v", path, i, p, u, want)
					}
				}
			}
		})
	})

	t.Run("QuickProperty", func(t *testing.T) {
		// Property: for arbitrary finite float32 arrays and bounds, the
		// round trip preserves length and (for strict compressors) the
		// error bound.
		f := func(seed uint64, nSel uint16, ebSel uint8) bool {
			rng := rand.New(rand.NewPCG(seed, 0xABCD))
			n := int(nSel%3000) + 1
			data := make([]float32, n)
			scale := math.Pow(10, float64(int(ebSel%9))-4) // 1e-4 .. 1e4
			for i := range data {
				data[i] = float32(rng.NormFloat64() * scale)
			}
			eb := math.Pow(10, -float64(ebSel%4)-1) // 1e-1 .. 1e-4
			stream, err := c.CompressAppend(nil, data, ebcl.Rel(eb))
			if err != nil {
				return false
			}
			out, _, err := c.DecompressFinite(nil, stream)
			if err != nil || len(out) != n {
				return false
			}
			if opt.StrictBound {
				ebAbs := eb * ebcl.ValueRange(data)
				if ebcl.MaxAbsError(data, out) > ebAbs*(1+1e-6)+1e-12 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	})

	t.Run("ZeroCopyContract", func(t *testing.T) {
		// DecompressFinite into a dirty correctly-sized buffer must be
		// bit-identical to a decode into a nil one. (The full alias-safety
		// matrix lives in internal/conformance; this keeps every per-codec
		// suite honest.)
		rng := rand.New(rand.NewPCG(13, 37))
		data := WeightLike(rng, 4099)
		ref, err := c.CompressAppend(nil, data, ebcl.Rel(1e-2))
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := c.DecompressFinite(nil, ref)
		if err != nil || len(want) != len(data) {
			t.Fatalf("decoded %d of %d elements: %v", len(want), len(data), err)
		}
		dirty := make([]float32, len(want))
		for i := range dirty {
			dirty[i] = float32(math.NaN())
		}
		got, _, err := c.DecompressFinite(dirty[:0], ref)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("DecompressFinite over dirty buffer diverged at %d: %v != %v", i, got[i], want[i])
			}
		}
	})

	t.Run("OddLengths", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(2, 2))
		for _, n := range []int{1, 2, 3, 4, 5, 7, 127, 128, 129, 255, 256, 257, 1023} {
			data := WeightLike(rng, n)
			stream, err := c.CompressAppend(nil, data, ebcl.Rel(1e-2))
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			out, _, err := c.DecompressFinite(nil, stream)
			if err != nil || len(out) != n {
				t.Fatalf("n=%d: len=%d err=%v", n, len(out), err)
			}
		}
	})
}
