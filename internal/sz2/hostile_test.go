package sz2

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/lanes"
)

// hostileBase is a 4,096-element stream (16 blocks) holding all three block
// kinds in four runs: weight-like noise (zero line), a ramp (fitted line), a
// random walk (Lorenzo), then noise again.
func hostileBase(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewPCG(37, 37))
	data := eblctest.WeightLike(rng, 16*blockSize)
	for i := 4 * blockSize; i < 12*blockSize; i++ {
		if i < 8*blockSize {
			data[i] = float32(1e-3*float64(i) + 1e-4*rng.NormFloat64())
			continue
		}
		data[i] = data[i-1] + float32(1e-3*rng.NormFloat64())
	}
	stream, err := NewCompressor().CompressAppend(nil, data, ebcl.Abs(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// clampSpan is a 32 Ki-element zero-line input under ABS 0.5 (bin width 1)
// whose Huffman code holds symbols 1 and 4095, the ends of the code range:
// small noise, −2047 and +2047, and two out-of-range values that escape. Its
// decoder builds the reconstruction table over the whole code range, 8·4095
// codes being within the blob's 32 Ki.
func clampSpan(t testing.TB) (data []float32, stream []byte) {
	t.Helper()
	data = eblctest.WeightLike(rand.New(rand.NewPCG(55, 7)), 32<<10)
	for i := range data {
		data[i] *= 3
	}
	data[5], data[300], data[301], data[4000] = -2047, 2047, 1e30, -1e30
	stream, err := NewCompressor().CompressAppend(nil, data, ebcl.Abs(0.5))
	if err != nil {
		t.Fatal(err)
	}
	return data, stream
}

// TestZeroLineTableClamp: clampSpan's stream decodes within its bound, and
// bit for bit alike on both lane paths, the table spanning codes 1 to 4095.
func TestZeroLineTableClamp(t *testing.T) {
	data, stream := clampSpan(t)
	var sec ebcl.Sections
	if _, full, err := sec.Open(format, nil, stream); !full || err != nil {
		t.Fatalf("open: full %v, %v", full, err)
	}
	span := sec.Span
	sec.Close()
	if span != (ebcl.CodeSpan{Lo: 1, Hi: ebcl.QuantAlphabet - 1}) {
		t.Fatalf("the code spans %v, want [1, 4095]", span)
	}
	var outs [][]float32
	lanes.BothPaths(func(path string) {
		out, err := NewCompressor().DecompressInto(nil, stream)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if e := ebcl.MaxAbsError(data, out); !(e <= 0.5) {
			t.Fatalf("%s: max error %v over the bound 0.5", path, e)
		}
		outs = append(outs, out)
	})
	for _, out := range outs[1:] { // the Go loops', where there are kernels
		for i := range out {
			if math.Float32bits(outs[0][i]) != math.Float32bits(out[i]) {
				t.Fatalf("element %d: %v on the kernels, %v on the Go loops", i, outs[0][i], out[i])
			}
		}
	}
}

// restage rebuilds an SZ2 stream with the layout byte layout and the kinds
// and coefficient sections edit returns for stream's own (copies), every
// section otherwise kept and the payload stored raw behind lossless-stage
// mode 0.
func restage(t testing.TB, stream []byte, layout byte, edit func(kinds, coeffs []byte) ([]byte, []byte)) []byte {
	t.Helper()
	payload, _, err := ebcl.ReadLosslessStage(stream[17:])
	if err != nil {
		t.Fatal(err)
	}
	var sec [4][]byte // kinds, coeffs, code blob, literals
	for i, pos := 0, 0; i < len(sec); i++ {
		if sec[i], pos, err = ebcl.ReadSection(payload, pos); err != nil {
			t.Fatal(err)
		}
	}
	sec[0], sec[1] = edit(slices.Clone(sec[0]), slices.Clone(sec[1]))
	out := append(slices.Clone(stream[:17]), 0)
	out[8] = layout
	for _, s := range sec {
		out = ebcl.AppendSection(out, s)
	}
	return out
}

// asLayoutFull rewrites kind runs and coefficients the way the LayoutFull
// encoder wrote them: one kind byte a block, the zero line as a regression
// block with two zero coefficients.
func asLayoutFull(t testing.TB, runs, coeffs []byte) (kinds, out []byte) {
	t.Helper()
	r := ebcl.Sections{Kinds: runs, Runs: true}
	for len(r.Kinds) > 0 {
		kind, run, ok := r.NextKinds(math.MaxInt)
		if !ok {
			t.Fatal("bad kind run")
		}
		for ; run > 0; run-- {
			switch kind {
			case predLorenzo:
				kinds = append(kinds, predLorenzo)
			case predRegression:
				kinds, out, coeffs = append(kinds, predRegression), append(out, coeffs[:8]...), coeffs[8:]
			case predZero:
				kinds, out = append(kinds, predRegression), append(out, make([]byte, 8)...)
			}
		}
	}
	return kinds, out
}

// hostileStream is one damaged stream and what was done to it.
type hostileStream struct {
	name   string
	stream []byte
}

// hostileStreams damages hostileBase's kinds and coefficients. Each must be
// refused with ErrCorrupt.
func hostileStreams(t testing.TB) []hostileStream {
	base := hostileBase(t)
	full := func(kinds, coeffs []byte) ([]byte, []byte) { return asLayoutFull(t, kinds, coeffs) }
	runs := func(edit func(kinds, coeffs []byte) ([]byte, []byte)) []byte {
		return restage(t, base, ebcl.LayoutKindRuns, edit)
	}
	return []hostileStream{
		{"zero run", runs(func(k, c []byte) ([]byte, []byte) { return append([]byte{predZero, 0}, k...), c })},
		{"run overshoots", runs(func(_, c []byte) ([]byte, []byte) { return []byte{predLorenzo, 17}, c })},
		{"run of 2^63", runs(func(_, c []byte) ([]byte, []byte) { return binary.AppendUvarint([]byte{predLorenzo}, 1<<63), c })},
		{"runs fall short", runs(func(k, c []byte) ([]byte, []byte) { return k[:len(k)-2], c })},
		{"unknown kind", runs(func(k, c []byte) ([]byte, []byte) { k[0] = predZero + 1; return k, c })},
		{"run cut short", runs(func(k, c []byte) ([]byte, []byte) { return append(k[:len(k)-1], 0x80), c })},
		{"run after the last block", runs(func(k, c []byte) ([]byte, []byte) { return append(k, predLorenzo, 1), c })},
		{"surplus coefficients", runs(func(k, c []byte) ([]byte, []byte) { return k, append(c, make([]byte, 8)...) })},
		{"missing coefficients", runs(func(k, c []byte) ([]byte, []byte) { return k, c[:len(c)-8] })},
		{"zero-line kind under LayoutFull", restage(t, base, ebcl.LayoutFull, func(k, c []byte) ([]byte, []byte) {
			k, c = full(k, c)
			for i := range k {
				k[i] = predZero
			}
			return k, c
		})},
		{"surplus coefficients under LayoutFull", restage(t, base, ebcl.LayoutFull, func(k, c []byte) ([]byte, []byte) {
			k, c = full(k, c)
			return k, append(c, make([]byte, 8)...)
		})},
		// A zstd-like frame of a dozen bytes that would decompress to 64 MiB:
		// the literal "a", then one match to the end.
		{"lossless stage declaring 64 MiB", append(append(append(slices.Clone(base[:17]), 1),
			binary.AppendUvarint([]byte{0, 0, 0, 4, 0, 1, 'a', 1, 1}, 64<<20-4)...), 0, 0)},
	}
}

// TestKindRuns: hostileBase writes its four kind runs and only the fitted
// line's coefficients; the same blocks written the LayoutFull way (one kind
// byte a block, zero coefficients for the zero line) decode to the same
// values; and every damaged run list or coefficient count is refused with
// ErrCorrupt.
func TestKindRuns(t *testing.T) {
	base := hostileBase(t)
	var sec ebcl.Sections
	if _, _, err := sec.Open(format, nil, base); err != nil {
		t.Fatal(err)
	}
	want := []byte{predZero, 4, predRegression, 4, predLorenzo, 4, predZero, 4}
	if !sec.Runs || !slices.Equal(sec.Kinds, want) || sec.Coeffs.Len() != 8 {
		t.Fatalf("runs %v, kinds %v, %d coefficients; want runs %v and 8 coefficients", sec.Runs, sec.Kinds, sec.Coeffs.Len(), want)
	}
	sec.Close()
	out, err := NewCompressor().DecompressInto(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	earlier := restage(t, base, ebcl.LayoutFull, func(k, c []byte) ([]byte, []byte) { return asLayoutFull(t, k, c) })
	got, err := NewCompressor().DecompressInto(nil, earlier)
	if err != nil {
		t.Fatalf("LayoutFull stream: %v", err)
	}
	if !slices.Equal(got, out) {
		t.Fatal("the LayoutFull stream decodes to other values")
	}
	for _, h := range hostileStreams(t) {
		if out, err := NewCompressor().DecompressInto(nil, h.stream); !errors.Is(err, ebcl.ErrCorrupt) {
			t.Errorf("%s: %d elements, err %v; want ErrCorrupt", h.name, len(out), err)
		}
	}
}

// FuzzSZ2Decompress: any bytes decode to the element count the header states
// or fail with ErrCorrupt, never a panic. The seeds are hostileBase under both
// layouts and every hostileStreams case. A header count over 64 Ki elements
// is skipped: up to ebcl.MaxElements the decoder allocates what a header
// declares by design (a constant stream fills it), which only slows the
// search.
func FuzzSZ2Decompress(f *testing.F) {
	base := hostileBase(f)
	f.Add(base)
	f.Add(restage(f, base, ebcl.LayoutFull, func(k, c []byte) ([]byte, []byte) { return asLayoutFull(f, k, c) }))
	for _, h := range hostileStreams(f) {
		f.Add(h.stream)
	}
	_, clamp := clampSpan(f)
	f.Add(clamp)
	f.Fuzz(func(t *testing.T, stream []byte) {
		if n, _, _, err := ebcl.ParseHeader(stream, format.Magic); err == nil && n > 1<<16 {
			t.Skip("declares more than 64 Ki elements")
		}
		out, err := NewCompressor().DecompressInto(nil, stream)
		if err != nil {
			if !errors.Is(err, ebcl.ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if n, _, _, _ := ebcl.ParseHeader(stream, format.Magic); n != len(out) {
			t.Fatalf("decoded %d elements, the header states %d", len(out), n)
		}
	})
}

// TestDecoderVerdictHostile: streams whose values are not all finite — a NaN
// stored as a literal, an infinite fitted-line coefficient, a Lorenzo chain
// that a huge stored bound drives past float32's range — decode to a
// non-finite verdict on both paths, equal to a scan of what was written.
func TestDecoderVerdictHostile(t *testing.T) {
	base := hostileBase(t)
	withNaN := eblctest.WeightLike(rand.New(rand.NewPCG(5, 1)), 3*blockSize)
	withNaN[300] = float32(math.NaN())
	nanLiteral, err := NewCompressor().CompressAppend(nil, withNaN, ebcl.Abs(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	infCoeff := restage(t, base, ebcl.LayoutKindRuns, func(k, c []byte) ([]byte, []byte) {
		binary.LittleEndian.PutUint32(c, math.Float32bits(float32(math.Inf(1))))
		return k, c
	})
	overflow := slices.Clone(base)
	binary.LittleEndian.PutUint64(overflow[9:], math.Float64bits(1e37))
	lanes.BothPaths(func(path string) {
		for _, tc := range []struct {
			name   string
			stream []byte
		}{{"NaN literal", nanLiteral}, {"infinite coefficient", infCoeff}, {"Lorenzo chain past float32", overflow}} {
			out, m, err := NewCompressor().DecompressFinite(nil, tc.stream)
			if err != nil {
				t.Fatalf("%s: %s: %v", path, tc.name, err)
			}
			if e := lanes.Scan(out); m.Finite() || lanes.AbsMax(e.AbsBits) != m {
				t.Fatalf("%s: %s: verdict bits %#x (finite %v), a scan's %#x", path, tc.name, m, m.Finite(), e.AbsBits)
			}
		}
	})
}
