// Package conformance cross-checks the full FedSZ pipeline over every
// combination of error-bounded lossy compressor, lossless codec, error
// mode, and edge-case state-dict shape. Where eblctest holds each EBLC to
// a per-codec contract, this suite holds the *assembled pipeline* to one:
// streams round-trip, error bounds hold on the lossy partition, the
// lossless partition is bit-exact, and concurrent compresses and decodes
// on one pool produce bit-identical results to per-call Compress /
// Decompress.
package conformance

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/compressors"
	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/lossless"
	"repro/internal/sched"
	"repro/internal/sz2"
	"repro/internal/sz3"
	"repro/internal/tensor"
)

// codecTraits captures the per-EBLC contract differences the suite must
// respect.
type codecTraits struct {
	// strictBound: max reconstruction error ≤ ebAbs. ZFP's fixed-precision
	// mapping has no formal bound (paper §V-D1), so it runs loose.
	strictBound bool
	looseFactor float64
	// preservesNonFinite: NaN/±Inf payload values survive bit-exactly.
	// All four codecs now escape non-finite data to literals: sz2/sz3
	// per-value, szx and zfp per-block.
	preservesNonFinite bool
}

var traits = map[string]codecTraits{
	"sz2": {strictBound: true, preservesNonFinite: true},
	"sz3": {strictBound: true, preservesNonFinite: true},
	"szx": {strictBound: true, preservesNonFinite: true},
	"zfp": {strictBound: false, looseFactor: 8, preservesNonFinite: true},
}

// dictShape builds one edge-case state dict per named shape.
func dictShape(t *testing.T, shape string, rng *rand.Rand) *tensor.StateDict {
	t.Helper()
	sd := tensor.NewStateDict()
	switch shape {
	case "empty":
	case "scalar0d":
		// A 0-d tensor has rank 0 and exactly one element.
		s := tensor.New()
		s.Data[0] = 42.5
		sd.Add("step", tensor.KindScalarMeta, s)
	case "below-threshold":
		// Every tensor under the 1024-element gate: all-lossless routing.
		for i, n := range []int{1, 3, 64, 1000} {
			w := tensor.New(n)
			for j := range w.Data {
				w.Data[j] = float32(rng.NormFloat64())
			}
			sd.Add("small."+string(rune('a'+i)), tensor.KindWeight, w)
		}
	case "multi":
		// ≥8 lossy tensors plus metadata: exercises the parallel fan-out.
		for i := 0; i < 8; i++ {
			w := tensor.FromData(eblctest.WeightLike(rng, 2048+i*64), 2048+i*64)
			sd.Add("layer"+string(rune('a'+i))+".weight", tensor.KindWeight, w)
		}
		b := tensor.New(32)
		for j := range b.Data {
			b.Data[j] = float32(0.01 * rng.NormFloat64())
		}
		sd.Add("head.bias", tensor.KindBias, b)
	case "all-below-bound":
		// A lossy tensor whose values all sit below the absolute bound —
		// quantizes to a (near-)constant stream.
		w := tensor.New(4096)
		for j := range w.Data {
			w.Data[j] = float32(1e-7 * rng.NormFloat64())
		}
		sd.Add("tiny.weight", tensor.KindWeight, w)
	case "nonfinite":
		w := tensor.FromData(eblctest.WeightLike(rng, 4096), 4096)
		w.Data[17] = float32(math.NaN())
		w.Data[1025] = float32(math.Inf(1))
		w.Data[3000] = float32(math.Inf(-1))
		sd.Add("poisoned.weight", tensor.KindWeight, w)
	case "nan":
		// A NaN and no Inf, away from index 0: the value range is undefined
		// all the same.
		w := tensor.FromData(eblctest.WeightLike(rng, 4096), 4096)
		w.Data[1030] = float32(math.NaN())
		sd.Add("nan.weight", tensor.KindWeight, w)
	default:
		t.Fatalf("unknown shape %q", shape)
	}
	return sd
}

func isFinite32(v float32) bool {
	f := float64(v)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// checkRoundTrip asserts the pipeline contract for one decoded dict.
func checkRoundTrip(t *testing.T, orig, got *tensor.StateDict, opts core.Options, tr codecTraits) {
	t.Helper()
	if got.Len() != orig.Len() {
		t.Fatalf("entries %d != %d", got.Len(), orig.Len())
	}
	for i, e := range orig.Entries() {
		g := got.Entries()[i]
		if g.Name != e.Name || g.Kind != e.Kind {
			t.Fatalf("entry %d: %s/%v != %s/%v", i, g.Name, g.Kind, e.Name, e.Kind)
		}
		if len(g.Tensor.Data) != len(e.Tensor.Data) {
			t.Fatalf("entry %q: %d elements, want %d", e.Name, len(g.Tensor.Data), len(e.Tensor.Data))
		}
		lossy := e.Kind == tensor.KindWeight && e.Tensor.NumElems() > core.DefaultThreshold
		if !lossy {
			// Lossless partition must survive bit-exactly.
			for j := range e.Tensor.Data {
				if math.Float32bits(e.Tensor.Data[j]) != math.Float32bits(g.Tensor.Data[j]) {
					t.Fatalf("lossless entry %q not bit-exact at %d", e.Name, j)
				}
			}
			continue
		}
		// Lossy partition: resolve the absolute bound the params promise.
		var ebAbs float64
		switch opts.LossyParams.Mode {
		case ebcl.ModeRelative:
			ebAbs = opts.LossyParams.Value * ebcl.ValueRange(e.Tensor.Data)
		case ebcl.ModeAbsolute:
			ebAbs = opts.LossyParams.Value
		}
		limit := ebAbs
		if !tr.strictBound {
			limit = ebAbs * tr.looseFactor
		}
		for j := range e.Tensor.Data {
			a, b := e.Tensor.Data[j], g.Tensor.Data[j]
			if !isFinite32(a) {
				if tr.preservesNonFinite && math.Float32bits(a) != math.Float32bits(b) {
					t.Fatalf("entry %q: non-finite value at %d not preserved: % x -> % x",
						e.Name, j, math.Float32bits(a), math.Float32bits(b))
				}
				continue
			}
			if !tr.preservesNonFinite && !isFinite32(b) {
				t.Fatalf("entry %q: finite %g decoded non-finite %g at %d", e.Name, a, b, j)
			}
			if tr.strictBound || allFiniteNear(e.Tensor.Data, j) {
				if d := math.Abs(float64(a) - float64(b)); d > limit*(1+1e-6)+1e-12 {
					t.Fatalf("entry %q: error %g exceeds %g at %d", e.Name, d, limit, j)
				}
			}
		}
	}
}

// allFiniteNear reports whether the 4-aligned block around index j is free
// of non-finite values. ZFP stores poisoned blocks as exact literals, so
// their finite neighbours are bit-exact rather than bounded — the loose
// bound check only applies to fully finite blocks.
func allFiniteNear(data []float32, j int) bool {
	lo := j &^ 3
	hi := lo + 4
	if hi > len(data) {
		hi = len(data)
	}
	for _, v := range data[lo:hi] {
		if !isFinite32(v) {
			return false
		}
	}
	return true
}

func TestCrossCodecPipelineConformance(t *testing.T) {
	shapes := []string{"empty", "scalar0d", "below-threshold", "multi", "all-below-bound", "nonfinite", "nan"}
	params := []struct {
		name string
		p    ebcl.Params
	}{
		{"REL1e-2", ebcl.Rel(1e-2)},
		{"ABS1e-3", ebcl.Abs(1e-3)},
	}
	for _, lossyName := range compressors.Names() {
		tr, ok := traits[lossyName]
		if !ok {
			t.Fatalf("no traits for compressor %q — add it to the conformance table", lossyName)
		}
		for _, losslessName := range lossless.Names() {
			for _, pp := range params {
				for _, shape := range shapes {
					name := lossyName + "/" + losslessName + "/" + pp.name + "/" + shape
					t.Run(name, func(t *testing.T) {
						lossy, err := compressors.Get(lossyName)
						if err != nil {
							t.Fatal(err)
						}
						codec, err := lossless.Get(losslessName)
						if err != nil {
							t.Fatal(err)
						}
						opts := core.Options{Lossy: lossy, LossyParams: pp.p, Lossless: codec}
						rng := rand.New(rand.NewPCG(99, uint64(len(name))))
						sd := dictShape(t, shape, rng)

						stream, _, err := core.Compress(sd, opts)
						if (shape == "nonfinite" || shape == "nan") && pp.p.Mode == ebcl.ModeRelative && tr.strictBound {
							// A range-relative bound is undefined over NaN/Inf
							// data: the strict codecs must reject it cleanly
							// instead of emitting an undecodable stream.
							if err == nil {
								t.Fatal("REL bound over non-finite data compressed without error")
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						got, _, err := core.Decompress(stream)
						if err != nil {
							t.Fatal(err)
						}
						checkRoundTrip(t, sd, got, opts, tr)

						// Batched paths must be bit-identical to per-call.
						pool := sched.NewPool(2)
						batchStreams, err := compressAll(pool, []*tensor.StateDict{sd, sd, sd}, opts)
						if err != nil {
							t.Fatal(err)
						}
						for i, bs := range batchStreams {
							if !bytes.Equal(bs, stream) {
								t.Fatalf("concurrent stream %d differs from sequential", i)
							}
						}
						want := got.Marshal()
						batchDicts := make([][]byte, len(batchStreams))
						errs := make([]error, len(batchStreams))
						var wg sync.WaitGroup
						for i, bs := range batchStreams {
							wg.Add(1)
							go func() {
								defer wg.Done()
								var bd *tensor.StateDict
								if bd, _, errs[i] = core.DecompressWith(context.Background(), pool, bs, core.DecodeOptions{}); errs[i] == nil {
									batchDicts[i] = bd.Marshal()
								}
							}()
						}
						wg.Wait()
						for i, bd := range batchDicts {
							if errs[i] != nil {
								t.Fatal(errs[i])
							}
							if !bytes.Equal(bd, want) {
								t.Fatalf("concurrent decode %d differs from sequential", i)
							}
						}
					})
				}
			}
		}
	}
}

// compressAll compresses each dict in a goroutine of its own on one pool and
// returns the streams and the calls' errors joined.
func compressAll(pool *sched.Pool, sds []*tensor.StateDict, opts core.Options) ([][]byte, error) {
	streams := make([][]byte, len(sds))
	errs := make([]error, len(sds))
	var wg sync.WaitGroup
	for i, sd := range sds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[i], _, errs[i] = core.CompressWith(context.Background(), pool, sd, opts)
		}()
	}
	wg.Wait()
	return streams, errors.Join(errs...)
}

// TestLosslessStageEarnsItsKeep pins what the SZ2/SZ3 trailing stage is kept
// for, on weight-like data: it never grows a stream, and at REL 1e-1, where
// Huffman's one-bit floor leaves real redundancy, it still codes it away. At
// REL 1e-2 and 1e-3 the code blob spends 2 bits an element or more, the keep
// rule skips the stage, and nothing is left for it: SZ2's zero-line blocks
// write no coefficients and their kinds go as runs. SZ2's stream is also no
// longer than the one the earlier policy wrote for the same blocks (one kind
// byte a block, zero coefficients for the zero line, the stage always
// tried), which still decodes to the same values.
func TestLosslessStageEarnsItsKeep(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	data := eblctest.WeightLike(rng, 1<<16)
	rels := [3]float64{1e-1, 1e-2, 1e-3}
	for _, tc := range []struct {
		name    string
		c       ebcl.Compressor
		minGain [3]float64
	}{
		{"sz2", sz2.NewCompressor(), [3]float64{0.15, 0, 0}},
		{"sz3", sz3.NewCompressor(), [3]float64{0.15, 0, 0}},
	} {
		for i, rel := range rels {
			stream, err := tc.c.CompressAppend(nil, data, ebcl.Rel(rel))
			if err != nil {
				t.Fatal(err)
			}
			// The stage follows the common header (9) and the absolute bound
			// (8); without it the stream is those, a mode byte and the
			// payload the stage read back.
			payload, pooled, err := ebcl.ReadLosslessStage(stream[17:])
			if err != nil {
				t.Fatal(err)
			}
			on, off := len(stream), 17+1+len(payload)
			if tc.name == "sz2" {
				earlier := earlierSZ2Stream(t, stream[:17], payload)
				if len(stream) > len(earlier) {
					t.Errorf("sz2 REL %g: %d bytes, the earlier policy wrote %d", rel, len(stream), len(earlier))
				}
				want, _, err := tc.c.DecompressFinite(nil, stream)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := tc.c.DecompressFinite(nil, earlier)
				if err != nil {
					t.Fatalf("sz2 REL %g: earlier-policy stream: %v", rel, err)
				}
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("sz2 REL %g: earlier-policy stream decodes to %v at %d, not %v", rel, got[j], j, want[j])
					}
				}
			}
			if pooled {
				sched.PutBytes(payload)
			}
			if gain := 1 - float64(on)/float64(off); on > off || gain < tc.minGain[i] {
				t.Errorf("%s REL %g: stage on %d bytes, off %d (gain %.2f%%, want >= %.1f%%)",
					tc.name, rel, on, off, 100*gain, 100*tc.minGain[i])
			}
		}
	}
}

// earlierSZ2Stream rewrites an SZ2 stream's payload as the LayoutFull
// encoder wrote it: one kind byte a block with the zero line (kind 2) as a
// regression block (kind 1) carrying two zero coefficients, and the
// lossless stage always tried. head is the stream's header and bound.
func earlierSZ2Stream(t *testing.T, head, payload []byte) []byte {
	t.Helper()
	var sec [4][]byte // kinds, coeffs, code blob, literals
	pos := 0
	for i := range sec {
		var err error
		if sec[i], pos, err = ebcl.ReadSection(payload, pos); err != nil {
			t.Fatal(err)
		}
	}
	if head[8] != ebcl.LayoutKindRuns {
		t.Fatalf("layout %d, want %d", head[8], ebcl.LayoutKindRuns)
	}
	var kinds, coeffs []byte
	for runs, left := sec[0], sec[1]; len(runs) > 0; {
		kind := runs[0]
		run, k := binary.Uvarint(runs[1:])
		if k <= 0 {
			t.Fatal("bad kind run")
		}
		runs = runs[1+k:]
		for ; run > 0; run-- {
			switch kind {
			case 0:
				kinds = append(kinds, 0)
			case 1:
				kinds, coeffs, left = append(kinds, 1), append(coeffs, left[:8]...), left[8:]
			case 2:
				kinds, coeffs = append(kinds, 1), append(coeffs, make([]byte, 8)...)
			}
		}
	}
	p := ebcl.AppendSection(nil, kinds)
	p = ebcl.AppendSection(p, coeffs)
	p = ebcl.AppendSection(p, sec[2])
	p = ebcl.AppendSection(p, sec[3])
	out := append(append([]byte(nil), head...), 0)
	out[8] = ebcl.LayoutFull
	return ebcl.LosslessStageAt(append(out, p...), 17)
}

// TestLosslessStageKeepRule: the back end tries the trailing stage only when
// the code blob spends under 2 bits an element, and that rule gives nothing
// away: wherever it skips the stage, forcing the stage on the same payload
// saves under 0.5 % of the stream.
func TestLosslessStageKeepRule(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 2))
	for _, n := range []int{2_500, 51_000, 146_000} {
		data := eblctest.WeightLike(rng, n)
		for _, tc := range []struct {
			name   string
			c      ebcl.Compressor
			blobAt int // the code blob's section: SZ2 has coefficients before it
		}{
			{"sz2", sz2.NewCompressor(), 2},
			{"sz3", sz3.NewCompressor(), 1},
		} {
			for _, rel := range []float64{2e-1, 1e-1, 5e-2, 3e-2, 1e-2, 1e-3} {
				stream, err := tc.c.CompressAppend(nil, data, ebcl.Rel(rel))
				if err != nil {
					t.Fatal(err)
				}
				payload, pooled, err := ebcl.ReadLosslessStage(stream[17:])
				if err != nil {
					t.Fatal(err)
				}
				var blob []byte
				for i, pos := 0, 0; i <= tc.blobAt; i++ {
					if blob, pos, err = ebcl.ReadSection(payload, pos); err != nil {
						t.Fatal(err)
					}
				}
				bits, tried := 8*float64(len(blob))/float64(n), 8*len(blob) < 2*n
				if tried {
					t.Logf("%s n=%d REL %g: %.2f bits an element, stage tried, mode %d", tc.name, n, rel, bits, stream[17])
					continue
				}
				forced := ebcl.LosslessStageAt(append(append(append([]byte(nil), stream[:17]...), 0), payload...), 17)
				saved := 1 - float64(len(forced))/float64(len(stream))
				t.Logf("%s n=%d REL %g: %.2f bits an element, stage skipped, forcing it saves %.3f%%", tc.name, n, rel, bits, 100*saved)
				if stream[17] != 0 || saved >= 0.005 {
					t.Errorf("%s n=%d REL %g: mode %d, forcing the stage saves %.2f%%, want mode 0 and under 0.5%%", tc.name, n, rel, stream[17], 100*saved)
				}
				if pooled {
					sched.PutBytes(payload)
				}
			}
		}
	}
}
