package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/compressors"
	"repro/internal/ebcl"
	"repro/internal/lanes"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// parseTensors returns the stream's parsed tensor sections in stream order.
func parseTensors(t *testing.T, stream []byte) []ParsedTensor {
	t.Helper()
	secs, err := Sections(stream)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := ParseHeader(secs.Header)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]ParsedTensor, len(secs.Tensors))
	for i, sec := range secs.Tensors {
		if pts[i], err = ParseTensorSection(hdr, sec, nil); err != nil {
			t.Fatal(err)
		}
	}
	return pts
}

// sentinelRefuser is a built-in EBLC that cannot encode any input containing
// the sentinel value: a codec error on one candidate of the both-ways policy
// but not the other. Every other method is the wrapped codec's, so the
// constant-residual, verdict and bound paths are production's.
type sentinelRefuser struct {
	ebcl.Compressor
	sentinel float32
}

func (c sentinelRefuser) CompressAppend(dst []byte, data []float32, p ebcl.Params) ([]byte, error) {
	if slices.Contains(data, c.sentinel) {
		return nil, errors.New("sentinel in input")
	}
	return c.Compressor.CompressAppend(dst, data, p)
}

// TestDeltaAbsoluteCandidateError: when the absolute candidate errors after
// the residual candidate succeeded, the residual is the section — and the
// section must say so. The unchunked encoder used to count the tensor as a
// residual but leave its mode byte absolute, so the decoder reconstructed
// the residual without adding the reference back.
func TestDeltaAbsoluteCandidateError(t *testing.T) {
	const sentinel, bound = 0.40625, 1e-3
	sz2, err := compressors.Get("sz2")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(19, 1))
	ref := skewedDict(rng, 18432)
	sd := driftClone(rng, ref, 0.001)
	// The data holds the sentinel; data − ref (≈ 0.4) does not.
	sd.Get("fc.weight").Data[5000] = sentinel

	for _, chunkElems := range []int{-1, 2048} {
		opts := Options{
			Lossy:       sentinelRefuser{sz2, sentinel},
			LossyParams: ebcl.Abs(bound),
			ChunkElems:  chunkElems,
			Reference:   ref,
			RefEpoch:    1,
		}
		stream, stats, err := Compress(sd, opts)
		if err != nil {
			t.Fatalf("ChunkElems %d: %v", chunkElems, err)
		}
		got, dstats, err := DecompressWith(context.Background(), nil, stream, DecodeOptions{Reference: ref, RefEpoch: 1})
		if err != nil {
			t.Fatalf("ChunkElems %d: %v", chunkElems, err)
		}
		if stats.DeltaTensors != dstats.DeltaTensors {
			t.Errorf("ChunkElems %d: encoder counts %d residual sections, decoder %d",
				chunkElems, stats.DeltaTensors, dstats.DeltaTensors)
		}
		if pt := parseTensors(t, stream)[0]; pt.Name != "fc.weight" || !pt.Delta {
			t.Errorf("ChunkElems %d: section %q mode byte is not sectionDelta", chunkElems, pt.Name)
		}
		if e := ebcl.MaxAbsError(sd.Get("fc.weight").Data, got.Get("fc.weight").Data); e > bound*(1+1e-6) {
			t.Errorf("ChunkElems %d: max error %g exceeds bound %g", chunkElems, e, bound)
		}
	}
}

// TestConstantResidualCheck holds constantResidual to the decoder's exact
// output, with the extent and mag the residual pass finds: an element whose
// reconstruction fl(ref + mid) misses data by one float32 ulp past eb forces
// the fallback, one a ulp inside does not. The span sits where constantProved
// cannot decide, so lanes.Within judges every case; it runs on the lane
// kernel and on the Go loop.
func TestConstantResidualCheck(t *testing.T) {
	lanes.BothPaths(func(path string) { constantResidualCheck(t, path) })
}

func constantResidualCheck(t *testing.T, path string) {
	// g is the float32 ulp at big. Two elements with a zero reference pin the
	// residual's extent to [lo, hi], so mid = 180.45·g, and fl(big + mid) =
	// big + 180·g. An element with reference big and residual 196·g then
	// misses data by 16·g, inside eb; one float32 ulp up, at 197·g, it misses
	// by 17·g, past eb, and still within the extent. Every other element lands
	// well inside.
	const n, big, g = 1000, 1000, 0x1p-14
	const eb = 16.8 * g
	lo, hi := float32(163.85*g), float32(197.05*g)
	rng := rand.New(rand.NewPCG(32, 2))
	data, ref, res := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range ref {
		ref[i] = float32(rng.NormFloat64())
		data[i] = ref[i] + lo + float32(0.1+0.8*rng.Float64())*(hi-lo)
	}
	ref[1], data[1], ref[2], data[2] = 0, lo, 0, hi
	ks := []int{0, 517, n - 1}
	inside, past := float32(big+196*g), float32(big+197*g)
	for _, k := range ks {
		ref[k], data[k] = big, inside
	}
	check := func(what string, k int, want bool) {
		t.Helper()
		_, r, mag, ok := computeResidual(res, data, ref)
		if !ok || r.Lo != lo || r.Hi != hi {
			t.Fatalf("%s: %s: residual extent [%g, %g], want [%g, %g]", path, what, r.Lo, r.Hi, lo, hi)
		}
		if constantProved(r.Span(), mag, eb) {
			t.Fatalf("%s: %s: the proof decides a span of %g at eb %g; the case must reach lanes.Within", path, what, r.Span(), eb)
		}
		mid, ok := constantResidual(data, ref, r, mag, eb)
		if recon := float32(big) + mid; recon != big+180*g {
			t.Fatalf("%s: %s: fl(big + mid) = big + %g·g, want big + 180·g", path, what, (float64(recon)-big)/g)
		}
		if ok != want {
			t.Errorf("%s: %s: element %d misses by %g·g at eb %g·g: constant form %v, want %v",
				path, what, k, math.Abs(float64(data[k])-float64(float32(big)+mid))/g, eb/g, ok, want)
		}
	}
	for _, k := range ks {
		check("a ulp inside eb", k, true)
		data[k] = past
		check("a ulp past eb", k, false)
		data[k] = inside
	}
}

// TestBlobPolicyTable drives encodeBlob's one policy over every blob shape:
// {unchunked, chunked} × every way a tensor can or cannot be a residual
// candidate. skewedDict's fc.weight (18432 elems) chunks at a 2048 target;
// conv.weight (1600 elems) never does. The "sampled" rows grow fc.weight past
// sampleMinElems, where a sample picks the candidate: there the kept blob may
// exceed the smaller candidate by the tested 1 % and DeltaBytesSaved is an
// estimate, held to 2 % of the absolute blob. The warm reference drifts too far
// for a constant residual; the calm one lets the named tensors ship as one.
func TestBlobPolicyTable(t *testing.T) {
	const epoch, sampledElems = 7, 40_000
	warm := func(sd *tensor.StateDict) *tensor.StateDict {
		return driftClone(rand.New(rand.NewPCG(19, 3)), sd, 0.004)
	}
	calm := func(sd *tensor.StateDict) *tensor.StateDict {
		return driftClone(rand.New(rand.NewPCG(19, 3)), sd, 0.001)
	}
	// without returns a warm reference whose fc.weight is replaced by repl
	// (dropped when nil).
	without := func(sd *tensor.StateDict, repl *tensor.Tensor) *tensor.StateDict {
		ref := tensor.NewStateDict()
		for _, e := range warm(sd).Entries() {
			switch {
			case e.Name != "fc.weight":
				ref.Add(e.Name, e.Kind, e.Tensor)
			case repl != nil:
				ref.Add(e.Name, e.Kind, repl)
			}
		}
		return ref
	}
	// trail returns a reference that trails the data by Gaussian noise.
	trail := func(sigma float64) func(sd *tensor.StateDict) *tensor.StateDict {
		return func(sd *tensor.StateDict) *tensor.StateDict {
			ref, rng := warm(sd), rand.New(rand.NewPCG(19, 4))
			for _, e := range ref.Entries() {
				for i, v := range sd.Get(e.Name).Data {
					e.Tensor.Data[i] = v - float32(sigma*rng.NormFloat64())
				}
			}
			return ref
		}
	}
	// cold is the "cold reference" row's −data, for the sampled rows.
	cold := func(sd *tensor.StateDict) *tensor.StateDict {
		ref := warm(sd)
		for _, e := range ref.Entries() {
			for i, v := range sd.Get(e.Name).Data {
				e.Tensor.Data[i] = -v
			}
		}
		return ref
	}
	both := []string{"fc.weight", "conv.weight"}

	cases := []struct {
		name   string
		lossy  string
		params ebcl.Params
		// poison, when set, overwrites one fc.weight element.
		poison float32
		// shift is added to every conv.weight element: the magnitude the
		// residual path's float32 roundings scale with.
		shift float32
		ref   func(sd *tensor.StateDict) *tensor.StateDict
		// wantDelta names the tensors whose section must be a residual, and
		// constant those of them that must be a constant one.
		wantDelta, constant []string
		// plain marks fc.weight as unable to chunk whatever chunkCount says.
		plain bool
		// fcElems sizes fc.weight (0: 18432, under sampleMinElems).
		fcElems int
		// refuse, when set, overwrites fc.weight[refuse] with a value the
		// reference-holding encoder's codec cannot encode.
		refuse int
	}{
		{name: "no reference", lossy: "sz2", params: ebcl.Rel(1e-2)},
		{name: "warm reference REL", lossy: "sz2", params: ebcl.Rel(1e-2), ref: warm, wantDelta: both},
		{name: "warm reference ABS", lossy: "sz3", params: ebcl.Abs(1e-3), ref: warm, wantDelta: both},
		// fc.weight's residual spans ~0.008 against REL's ~0.009 bound, conv.weight's
		// ~0.007 against ~0.0013; under ABS 1e-2 both fit.
		{name: "constant residual REL", lossy: "sz2", params: ebcl.Rel(1e-2), ref: calm,
			wantDelta: both, constant: []string{"fc.weight"}},
		{name: "constant residual ABS", lossy: "szx", params: ebcl.Abs(1e-2), ref: calm, wantDelta: both, constant: both},
		{name: "sampled constant residual", lossy: "sz3", params: ebcl.Rel(1e-2), ref: calm,
			wantDelta: both, constant: []string{"fc.weight"}, fcElems: sampledElems},
		{name: "cold reference", lossy: "sz2", params: ebcl.Rel(1e-2),
			// ref = −data: the residual 2·data is wider than the data.
			ref: func(sd *tensor.StateDict) *tensor.StateDict {
				ref := warm(sd)
				for _, e := range ref.Entries() {
					for i, v := range sd.Get(e.Name).Data {
						e.Tensor.Data[i] = -v
					}
				}
				return ref
			}},
		{name: "reference missing the tensor", lossy: "sz2", params: ebcl.Rel(1e-2),
			ref:       func(sd *tensor.StateDict) *tensor.StateDict { return without(sd, nil) },
			wantDelta: []string{"conv.weight"}},
		{name: "reference tensor mis-sized", lossy: "sz2", params: ebcl.Rel(1e-2),
			ref:       func(sd *tensor.StateDict) *tensor.StateDict { return without(sd, tensor.New(18431)) },
			wantDelta: []string{"conv.weight"}},
		{name: "PREC has no bound to carry over", lossy: "zfp", params: ebcl.Precision(16), ref: warm},
		// Only zfp encodes REL over an infinite range at all (its residual of
		// the finite conv.weight loses to the absolute blob).
		{name: "REL unresolvable on infinite data", lossy: "zfp", params: ebcl.Rel(1e-2),
			poison: float32(math.Inf(1)), ref: warm, plain: true},
		{name: "NaN residual", lossy: "sz2", params: ebcl.Abs(1e-3),
			poison: float32(math.NaN()), ref: warm, wantDelta: []string{"conv.weight"}},
		// ABS 1e-3 under the two float32 roundings of the residual path,
		// fl(d − ref) and fl(ref + r′), 2⁻²⁴ of |x| each: negligible at 1; 3 %
		// of the bound at 500, which the residual's bound gives up; twice
		// the bound at 3e4, where conv.weight goes absolute.
		{name: "ABS, values near 1", lossy: "sz2", params: ebcl.Abs(1e-3), shift: 1, ref: warm, wantDelta: both},
		{name: "ABS, values near 500", lossy: "sz2", params: ebcl.Abs(1e-3), shift: 500, ref: warm, wantDelta: both},
		{name: "ABS, values near 3e4", lossy: "sz2", params: ebcl.Abs(1e-3), shift: 3e4, ref: warm, wantDelta: []string{"fc.weight"}},

		{name: "sampled warm REL", lossy: "sz2", params: ebcl.Rel(1e-2), ref: warm, wantDelta: both, fcElems: sampledElems},
		{name: "sampled warm ABS", lossy: "szx", params: ebcl.Abs(1e-3), ref: warm, wantDelta: both, fcElems: sampledElems},
		{name: "sampled cold", lossy: "sz2", params: ebcl.Rel(1e-2), ref: cold, fcElems: sampledElems},
		// A hair either side of the tie (σ ≈ 0.069 for this data under sz2).
		{name: "sampled near-tie, residual side", lossy: "sz2", params: ebcl.Rel(1e-2),
			ref: trail(0.066), wantDelta: []string{"fc.weight"}, fcElems: sampledElems},
		{name: "sampled near-tie, absolute side", lossy: "sz2", params: ebcl.Rel(1e-2),
			ref: trail(0.072), fcElems: sampledElems},
		{name: "sampled NaN residual", lossy: "sz3", params: ebcl.Abs(1e-3),
			poison: float32(math.NaN()), ref: warm, wantDelta: []string{"conv.weight"}, fcElems: sampledElems},
		// Element 100 is in the sample: the absolute sample fails, the exact
		// both-ways block takes over and keeps the candidate that encodes.
		{name: "sampled, absolute sample fails", lossy: "sz2", params: ebcl.Rel(1e-2),
			ref: warm, wantDelta: both, fcElems: sampledElems, refuse: 100},
		// Element 2000 is not: the sample picks absolute, whose full encode
		// fails, and the residual is still the section.
		{name: "sampled, picked absolute fails", lossy: "sz2", params: ebcl.Rel(1e-2),
			ref: trail(0.08), wantDelta: []string{"fc.weight"}, fcElems: sampledElems, refuse: 2000},
	}
	for _, tc := range cases {
		for _, chunkElems := range []int{-1, 2048} {
			t.Run(fmt.Sprintf("%s/chunk%d", tc.name, chunkElems), func(t *testing.T) {
				lossy, err := compressors.Get(tc.lossy)
				if err != nil {
					t.Fatal(err)
				}
				fcElems := max(tc.fcElems, 18432)
				sd := skewedDict(rand.New(rand.NewPCG(19, 2)), fcElems)
				if tc.poison != 0 {
					sd.Get("fc.weight").Data[100] = tc.poison
				}
				for i := range sd.Get("conv.weight").Data {
					sd.Get("conv.weight").Data[i] += tc.shift
				}
				opts := Options{Lossy: lossy, LossyParams: tc.params, ChunkElems: chunkElems}
				absStream, _, err := Compress(sd, opts)
				if err != nil {
					t.Fatal(err)
				}
				var dopts DecodeOptions
				if tc.ref != nil {
					opts.Reference, opts.RefEpoch = tc.ref(sd), epoch
					dopts = DecodeOptions{Reference: opts.Reference, RefEpoch: epoch}
				}
				if tc.refuse != 0 {
					const sentinel = 0.40625
					sd.Get("fc.weight").Data[tc.refuse] = sentinel
					if absStream, _, err = Compress(sd, Options{Lossy: lossy, LossyParams: tc.params, ChunkElems: chunkElems}); err != nil {
						t.Fatal(err)
					}
					opts.Lossy = sentinelRefuser{lossy, sentinel}
				}
				gets0, misses0 := sched.FloatPoolCounters()
				puts0 := sched.FloatPoolPuts()
				stream, stats, err := Compress(sd, opts)
				if err != nil {
					t.Fatal(err)
				}
				gets1, misses1 := sched.FloatPoolCounters()
				if took, put := (gets1+misses1)-(gets0+misses0), sched.FloatPoolPuts()-puts0; took != put {
					t.Errorf("encode took %d float buffers and returned %d", took, put)
				}

				// The version follows chunkCount alone (the header is out before
				// any tensor is looked at); the blob may still fall back.
				wantChunked := 0
				wantVersion := byte(streamVersion)
				switch {
				case chunkCount(fcElems, chunkElemsOf(opts)) > 1:
					wantVersion = streamVersionV4
					if !tc.plain && !slices.Contains(tc.constant, "fc.weight") {
						wantChunked = 1
					}
				case tc.ref != nil:
					wantVersion = streamVersionV3
				}
				if stream[4] != wantVersion {
					t.Errorf("stream version %d, want %d", stream[4], wantVersion)
				}

				got, dstats, err := DecompressWith(context.Background(), nil, stream, dopts)
				if err != nil {
					t.Fatal(err)
				}
				if stats.DeltaTensors != len(tc.wantDelta) || dstats.DeltaTensors != len(tc.wantDelta) {
					t.Errorf("DeltaTensors: encoder %d, decoder %d, want %d", stats.DeltaTensors, dstats.DeltaTensors, len(tc.wantDelta))
				}
				if stats.ConstantResiduals != len(tc.constant) {
					t.Errorf("ConstantResiduals %d, want %d", stats.ConstantResiduals, len(tc.constant))
				}
				if stats.ChunkedTensors != wantChunked || dstats.ChunkedTensors != wantChunked {
					t.Errorf("ChunkedTensors: encoder %d, decoder %d, want %d", stats.ChunkedTensors, dstats.ChunkedTensors, wantChunked)
				}
				if len(tc.wantDelta) > 0 {
					// A decoder holding another epoch's reference must ask for
					// renegotiation, not decode wrong data or call the peer broken.
					dopts.RefEpoch++
					if _, _, err := DecompressWith(context.Background(), nil, stream, dopts); !errors.Is(err, ErrReference) {
						t.Errorf("epoch mismatch: got %v, want ErrReference", err)
					}
				}

				// Section by section against the same-options absolute stream: a
				// residual is never longer than the absolute blob it replaced
				// (by more than 1 % when a sample picked it) and accounts for
				// exactly the difference (for the estimate of it); anything
				// else is that absolute blob, byte for byte. A residual kept
				// because the absolute candidate does not encode, or shipped as
				// a constant, is never priced against it and counts no saving.
				saved, slack := 0, 0
				abs := parseTensors(t, absStream)
				for i, pt := range parseTensors(t, stream) {
					if want := slices.Contains(tc.wantDelta, pt.Name); pt.Delta != want {
						t.Errorf("%s: residual section = %v, want %v", pt.Name, pt.Delta, want)
					}
					isConst := pt.Delta && len(pt.Blob) == 13 && pt.Blob[8] == ebcl.LayoutConstant
					if want := slices.Contains(tc.constant, pt.Name); isConst != want {
						t.Errorf("%s: constant residual = %v, want %v", pt.Name, isConst, want)
					}
					unpriced := tc.refuse != 0 && pt.Name == "fc.weight" || isConst
					longest := len(abs[i].Blob)
					if pt.Delta && len(sd.Get(pt.Name).Data) > sampleMinElems && !unpriced {
						slack += len(abs[i].Blob) / 50
						longest += len(abs[i].Blob) / 100
					}
					switch {
					case !pt.Delta:
						if !bytes.Equal(pt.Blob, abs[i].Blob) {
							t.Errorf("%s: absolute section differs from the no-reference encode", pt.Name)
						}
					case len(pt.Blob) > longest && !unpriced:
						t.Errorf("%s: residual blob %d B longer than absolute %d B", pt.Name, len(pt.Blob), len(abs[i].Blob))
					}
					if !unpriced {
						saved += max(len(abs[i].Blob)-len(pt.Blob), 0)
					}
				}
				if d := stats.DeltaBytesSaved - saved; d < -slack || d > slack || stats.DeltaBytesSaved < 0 ||
					(saved == 0) != (len(tc.wantDelta) == len(tc.constant)) && tc.refuse == 0 {
					t.Errorf("DeltaBytesSaved %d, sections differ by %d (±%d) over %d residuals", stats.DeltaBytesSaved, saved, slack, len(tc.wantDelta))
				}

				// The bound holds on the original data, residual or not. zfp
				// promises none; a poisoned tensor is checked on its finite
				// values.
				if tc.lossy == "zfp" {
					return
				}
				for _, name := range both {
					a, b := sd.Get(name).Data, got.Get(name).Data
					eb := tc.params.Value
					if tc.params.Mode == ebcl.ModeRelative {
						eb *= ebcl.ValueRange(a)
					}
					for i := range a {
						if fin := !math.IsNaN(float64(a[i])) && !math.IsInf(float64(a[i]), 0); !fin {
							if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
								t.Fatalf("%s[%d]: non-finite value not preserved: got %g", name, i, b[i])
							}
						} else if e := math.Abs(float64(a[i]) - float64(b[i])); e > eb*(1+1e-6) {
							t.Fatalf("%s[%d]: error %g exceeds bound %g", name, i, e, eb)
						}
					}
				}
			})
		}
	}
}
