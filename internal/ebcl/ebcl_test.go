package ebcl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/huffman"
	"repro/internal/lanes"
	"repro/internal/sched"
)

func TestValueRange(t *testing.T) {
	inf, negInf := float32(math.Inf(1)), float32(math.Inf(-1))
	nineOf := func(v float32) []float32 { return []float32{v, v, v, v, v, v, v, v, v} }
	cases := []struct {
		data []float32
		want float64
	}{
		{nil, 0},
		{[]float32{5}, 0},
		{[]float32{1, 2, 3}, 2},
		{[]float32{-1, 1}, 2},
		{[]float32{-3.5, -1.5}, 2},
		// An infinity gives what hi − lo gives in floats.
		{[]float32{negInf, inf}, math.Inf(1)},
		{[]float32{1, inf}, math.Inf(1)},
		{append(nineOf(negInf), inf), math.Inf(1)},
		{append(nineOf(1), inf), math.Inf(1)},
	}
	nan := float32(math.NaN())
	nanCases := [][]float32{
		// A NaN anywhere leaves the range undefined, not just at index 0.
		{nan, 1, 2}, {1, nan, 2}, {1, 2, nan}, {1, 2, 3, 4, 5, nan, 7},
		// So does one infinity alone: Inf − Inf.
		{inf}, {inf, inf, inf}, nineOf(inf), {negInf}, {negInf, negInf}, nineOf(negInf),
	}
	lanes.BothPaths(func(path string) {
		for i, c := range cases {
			if got := ValueRange(c.data); got != c.want {
				t.Errorf("%s: case %d: ValueRange = %v want %v", path, i, got, c.want)
			}
		}
		for _, data := range nanCases {
			if got := ValueRange(data); !math.IsNaN(got) {
				t.Errorf("%s: ValueRange(%v) = %v, want NaN", path, data, got)
			}
		}
	})
}

func TestResolveAbs(t *testing.T) {
	data := []float32{-1, 1} // range 2
	if eb, err := ResolveAbs(data, Rel(0.01)); err != nil || math.Abs(eb-0.02) > 1e-15 {
		t.Fatalf("Rel: eb=%v err=%v", eb, err)
	}
	if eb, err := ResolveAbs(data, Abs(0.5)); err != nil || eb != 0.5 {
		t.Fatalf("Abs: eb=%v err=%v", eb, err)
	}
	if eb, err := ResolveAbs(data, Precision(10)); err != nil || eb != 0 {
		t.Fatalf("Precision: eb=%v err=%v", eb, err)
	}
	nan := float32(math.NaN())
	for _, bad := range [][]float32{{nan, 1, 2}, {1, nan, 2}, {1, 2, nan}} {
		if eb, err := ResolveAbs(bad, Rel(0.01)); err == nil {
			t.Errorf("Rel over %v: eb=%v, want an error", bad, eb)
		}
	}
	for _, bad := range []Params{Rel(0), Rel(-1), Abs(0), Precision(0), Precision(64), {Mode: Mode(9)}} {
		if _, err := ResolveAbs(data, bad); err == nil {
			t.Errorf("params %+v: want error", bad)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeRelative.String() != "REL" || ModeAbsolute.String() != "ABS" || ModeFixedPrecision.String() != "PREC" {
		t.Fatal("mode names changed")
	}
}

func TestQuantizerBasics(t *testing.T) {
	q := NewQuantizer(0.01)
	// Residual exactly representable.
	code, recon, ok := q.Quantize(1.04, 1.0)
	if !ok {
		t.Fatal("should be quantizable")
	}
	if code != QuantRadius+2 {
		t.Fatalf("code = %d want %d", code, QuantRadius+2)
	}
	if math.Abs(float64(recon)-1.04) > 0.01 {
		t.Fatalf("recon %v too far from 1.04", recon)
	}
	if got := q.Dequantize(code, 1.0); got != recon {
		t.Fatalf("Dequantize mismatch: %v != %v", got, recon)
	}
}

func TestQuantizerEscapes(t *testing.T) {
	q := NewQuantizer(0.01)
	// Residual beyond the code range must escape.
	if _, _, ok := q.Quantize(1000, 0); ok {
		t.Fatal("huge residual should escape")
	}
	// Non-finite values must escape rather than poison the stream.
	if _, _, ok := q.Quantize(math.NaN(), 0); ok {
		t.Fatal("NaN should escape")
	}
	if _, _, ok := q.Quantize(math.Inf(1), 0); ok {
		t.Fatal("+Inf should escape")
	}
}

func TestQuantizerBoundHolds(t *testing.T) {
	for _, eb := range []float64{1e-1, 1e-3, 1e-6} {
		q := NewQuantizer(eb)
		pred := 0.37
		for i := -3000; i <= 3000; i++ {
			orig := pred + float64(i)*eb*0.731
			code, recon, ok := q.Quantize(orig, pred)
			if !ok {
				continue
			}
			if err := math.Abs(float64(recon) - orig); err > eb*(1+1e-9) {
				t.Fatalf("eb=%g i=%d: error %g exceeds bound (code %d)", eb, i, err, code)
			}
		}
	}
}

func TestQuantizerZeroBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-positive bound")
		}
	}()
	NewQuantizer(0)
}

func TestMaxAbsErrorAndWithinBound(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{1.1, 2, 2.8}
	if got := MaxAbsError(a, b); math.Abs(got-0.2) > 1e-6 {
		t.Fatalf("MaxAbsError = %v", got)
	}
}

func TestSectionRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendSection(buf, []byte("hello"))
	buf = AppendSection(buf, nil)
	buf = AppendSection(buf, []byte{1, 2, 3})
	s1, pos, err := ReadSection(buf, 0)
	if err != nil || string(s1) != "hello" {
		t.Fatalf("s1=%q err=%v", s1, err)
	}
	s2, pos, err := ReadSection(buf, pos)
	if err != nil || len(s2) != 0 {
		t.Fatalf("s2=%q err=%v", s2, err)
	}
	s3, _, err := ReadSection(buf, pos)
	if err != nil || len(s3) != 3 {
		t.Fatalf("s3=%v err=%v", s3, err)
	}
	if _, _, err := ReadSection(buf, len(buf)); err == nil {
		t.Fatal("read past end should fail")
	}
	if _, _, err := ReadSection([]byte{0xFF}, 0); err == nil {
		t.Fatal("truncated varint should fail")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	buf := AppendHeader(nil, 0xCAFE, 12345, LayoutFull)
	n, layout, rest, err := ParseHeader(buf, 0xCAFE)
	if err != nil || n != 12345 || layout != LayoutFull || len(rest) != 0 {
		t.Fatalf("n=%d layout=%d err=%v", n, layout, err)
	}
	if _, _, _, err := ParseHeader(buf, 0xBEEF); err == nil {
		t.Fatal("wrong magic should fail")
	}
	if _, _, _, err := ParseHeader(buf[:4], 0xCAFE); err == nil {
		t.Fatal("short header should fail")
	}
}

func TestLosslessStage(t *testing.T) {
	payload := make([]byte, 4096) // all zeros: highly compressible
	out := LosslessStageAt(append([]byte{0}, payload...), 0)
	if len(out) >= len(payload) {
		t.Fatalf("stage did not compress: %d >= %d", len(out), len(payload))
	}
	back, pooled, err := ReadLosslessStage(out)
	if err != nil || len(back) != len(payload) || !pooled {
		t.Fatalf("round trip: len=%d pooled=%v err=%v", len(back), pooled, err)
	}
	sched.PutBytes(back)
	// A payload the codec cannot shrink is stored raw behind mode 0.
	payload = []byte{3, 1, 4, 1, 5, 9, 2, 6}
	raw := LosslessStageAt(append([]byte{0}, payload...), 0)
	if len(raw) != len(payload)+1 || raw[0] != 0 {
		t.Fatalf("incompressible payload should be stored raw: % x", raw)
	}
	if back, pooled, err := ReadLosslessStage(raw); err != nil || pooled || &back[0] != &raw[1] {
		t.Fatalf("raw stage should read back as a view: pooled=%v err=%v", pooled, err)
	}
	if _, _, err := ReadLosslessStage(nil); err == nil {
		t.Fatal("empty stage should fail")
	}
	if _, _, err := ReadLosslessStage([]byte{7}); err == nil {
		t.Fatal("bad mode byte should fail")
	}
}

// TestReadSectionHostileLength: a declared length of MaxInt64 read at a
// non-zero position overflows pos+int(l) to a negative sum, which a check
// written that way lets through to the slice expression.
func TestReadSectionHostileLength(t *testing.T) {
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("ReadSection panicked: %v", p)
		}
	}()
	payload := []byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	empty, pos, err := ReadSection(payload, 0)
	if err != nil || len(empty) != 0 || pos != 1 {
		t.Fatalf("first section: %v pos=%d err=%v", empty, pos, err)
	}
	if _, _, err := ReadSection(payload, pos); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("MaxInt64-length section: %v, want ErrCorrupt", err)
	}
}

// backEndStream runs Finish over a tiny hand-made quantization: three
// elements, the middle one an escape carrying the literal 7.
func backEndStream(t *testing.T, f Format) []byte {
	t.Helper()
	kinds := append(sched.GetBytes(1), 9)
	var coeffs []float32
	if f.Coeffs {
		coeffs = append(sched.GetFloats(2), 0.5, -0.25)
	}
	codes := append(sched.GetUint16s(3), QuantRadius, EscapeCode, QuantRadius+1)
	stream, err := f.Finish(nil, time.Now(), 0.125, Params{}, kinds, coeffs, codes, Tally{Span: CodeSpan{QuantRadius, QuantRadius + 1}}, append(sched.GetFloats(1), 7))
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// TestBackEndRoundTrip: Open hands back what Finish was given, with and
// without a coefficient section, and the literal cursor accounts for every
// literal exactly once.
func TestBackEndRoundTrip(t *testing.T) {
	for _, f := range []Format{{Magic: 0xABCD, Name: "a", Coeffs: true}, {Magic: 0xABCE, Name: "b"}} {
		stream := backEndStream(t, f)
		if n, _, _, err := ParseHeader(stream, f.Magic); err != nil || n != 3 {
			t.Fatalf("%s: header count %d, %v", f.Name, n, err)
		}
		var s Sections
		out, full, err := s.Open(f, nil, stream)
		if err != nil || !full || len(out) != 3 {
			t.Fatalf("%s: Open: len %d full %v err %v", f.Name, len(out), full, err)
		}
		if s.EbAbs != 0.125 || len(s.Kinds) != 1 || s.Kinds[0] != 9 || len(s.Codes) != 3 || s.Codes[1] != EscapeCode {
			t.Fatalf("%s: sections %+v", f.Name, s)
		}
		if want := map[bool]int{true: 2, false: 0}[f.Coeffs]; s.Coeffs.Len() != want {
			t.Fatalf("%s: %d coefficients, want %d", f.Name, s.Coeffs.Len(), want)
		}
		if s.LiteralsConsumed() {
			t.Fatalf("%s: a literal is unread, LiteralsConsumed is true", f.Name)
		}
		if v := s.NextLiteral(); v != 7 || !s.LiteralsConsumed() {
			t.Fatalf("%s: literal %v, consumed %v", f.Name, v, s.LiteralsConsumed())
		}
		if v := s.NextLiteral(); v != 0 || s.LiteralsConsumed() {
			t.Fatalf("%s: read past the last literal: %v, consumed %v", f.Name, v, s.LiteralsConsumed())
		}
		s.Close()
	}
}

// TestKindRunsLayout: a Format with KindRuns writes LayoutKindRuns and reads
// both full layouts, telling them apart by Runs; a Format without it, and
// DecodeLayout (the other codecs' frame), refuse LayoutKindRuns.
func TestKindRunsLayout(t *testing.T) {
	runs := Format{Magic: 0xABCD, Name: "a", Coeffs: true, KindRuns: true}
	plain := runs
	plain.KindRuns = false
	for _, tc := range []struct {
		write, read Format
		layout      byte
		err         bool
	}{
		{runs, runs, LayoutKindRuns, false},
		{plain, runs, LayoutFull, false},
		{plain, plain, LayoutFull, false},
		{runs, plain, LayoutKindRuns, true},
	} {
		stream := backEndStream(t, tc.write)
		if stream[8] != tc.layout {
			t.Fatalf("KindRuns %v wrote layout %d, want %d", tc.write.KindRuns, stream[8], tc.layout)
		}
		var s Sections
		_, full, err := s.Open(tc.read, nil, stream)
		if tc.err {
			if !errors.Is(err, ErrCorrupt) || full {
				t.Fatalf("layout %d read without KindRuns: full %v err %v, want ErrCorrupt", tc.layout, full, err)
			}
			if _, _, _, _, err := DecodeLayout(nil, stream, runs.Magic, LayoutFull); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeLayout on layout %d: %v, want ErrCorrupt", tc.layout, err)
			}
			continue
		}
		if err != nil || !full || s.Runs != (tc.layout == LayoutKindRuns) || s.Coeffs.Len() != 2 {
			t.Fatalf("layout %d read with KindRuns %v: full %v runs %v err %v", tc.layout, tc.read.KindRuns, full, s.Runs, err)
		}
		if kind, run, ok := s.NextKinds(1); kind != 9 || run != 1 || !ok || len(s.Kinds) != 0 {
			t.Fatalf("layout %d: kind %d run %d ok %v, %d kind bytes left; want kind 9, one block, none left", tc.layout, kind, run, ok, len(s.Kinds))
		}
		s.Close()
	}
}

// TestNextKinds: runs are read whole and checked against the blocks left; a
// zero, overshooting or cut run and a read past the end are refused.
func TestNextKinds(t *testing.T) {
	runs := binary.AppendUvarint([]byte{2, 3, 0}, 300)
	s := Sections{Kinds: runs, Runs: true}
	for _, want := range []struct {
		kind byte
		run  int
	}{{2, 3}, {0, 300}} {
		if kind, run, ok := s.NextKinds(303); kind != want.kind || run != want.run || !ok {
			t.Fatalf("kind %d run %d ok %v, want kind %d run %d", kind, run, ok, want.kind, want.run)
		}
	}
	for _, bad := range []struct {
		name  string
		kinds []byte
		left  int
	}{
		{"past the end", nil, 1},
		{"zero run", []byte{1, 0}, 1},
		{"run overshoots", []byte{1, 3}, 2},
		{"run of 2^63", binary.AppendUvarint([]byte{1}, 1<<63), math.MaxInt},
		{"run cut short", []byte{1, 0x80}, 1},
		{"kind without a run", []byte{1}, 1},
	} {
		s := Sections{Kinds: bad.kinds, Runs: true}
		if _, _, ok := s.NextKinds(bad.left); ok {
			t.Errorf("%s: read as a run", bad.name)
		}
	}
	s = Sections{Kinds: []byte{7, 0}}
	if kind, run, ok := s.NextKinds(5); kind != 7 || run != 1 || !ok || len(s.Kinds) != 1 {
		t.Fatalf("LayoutFull: kind %d run %d ok %v, %d bytes left", kind, run, ok, len(s.Kinds))
	}
}

// TestBackEndErrorsWrapErrCorrupt: whatever byte of a stream is damaged, an
// error from Open wraps ErrCorrupt, the Huffman decoder's own included.
func TestBackEndErrorsWrapErrCorrupt(t *testing.T) {
	f := Format{Magic: 0xABCD, Name: "a", Coeffs: true, KindRuns: true}
	stream := backEndStream(t, f)
	entropy := 0
	for off := range stream {
		for _, v := range []byte{0x00, 0x7F, 0xFF} {
			bad := slices.Clone(stream)
			bad[off] = v
			var s Sections
			_, full, err := s.Open(f, nil, bad)
			if full {
				s.Close()
			}
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("byte %d set to %#x: %v does not wrap ErrCorrupt", off, v, err)
			}
			if errors.Is(err, huffman.ErrCorrupt) || errors.Is(err, huffman.ErrBadLengths) {
				entropy++
			}
		}
	}
	if entropy == 0 {
		t.Fatal("no damage reached the Huffman decoder")
	}
}

// TestStageLengthCap: a zstd-like stage frame that declares more bytes than
// n elements' payload can take (here 64 MiB from a dozen bytes: one literal,
// then one match to the end) is refused before it is decompressed.
func TestStageLengthCap(t *testing.T) {
	f := Format{Magic: 0xABCD, Name: "a", Coeffs: true}
	const declared = 64 << 20
	frame := binary.LittleEndian.AppendUint32(nil, declared)
	frame = append(frame, 0, 1, 'a', 1, 1) // raw literals "a", one sequence, one literal
	frame = binary.AppendUvarint(frame, declared-4)
	stream := append(append(slices.Clone(backEndStream(t, f)[:17]), 1), append(frame, 0, 0)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var s Sections
	_, full, err := s.Open(f, nil, stream)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) || full {
		t.Fatalf("full %v err %v, want ErrCorrupt", full, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing the frame allocated %d bytes", grew)
	}
}

// TestBackEndRejectsBadBound: the decoder divides by the stored bound, so
// Open must refuse one that is not a positive finite number.
func TestBackEndRejectsBadBound(t *testing.T) {
	f := Format{Magic: 0xABCD, Name: "a", Coeffs: true}
	stream := backEndStream(t, f)
	for _, eb := range []float64{math.NaN(), 0, -0.125, math.Inf(1), math.Inf(-1)} {
		binary.LittleEndian.PutUint64(stream[9:], math.Float64bits(eb))
		var s Sections
		if out, full, err := s.Open(f, nil, stream); !errors.Is(err, ErrCorrupt) || full || out != nil {
			t.Fatalf("stored bound %g: out %v full %v err %v, want ErrCorrupt", eb, out, full, err)
		}
	}
	if _, _, _, err := f.Begin(nil, []float32{1, 2}, Precision(8)); err == nil || err.Error() != "a: fixed-precision mode unsupported" {
		t.Fatalf("fixed precision: %v", err)
	}
}

// quantizeEach is the reference QuantizeLinear is held to: one Quantize
// call per element against the prediction a·i + b, and worst the largest
// |v − recon| of the elements that did not escape.
func quantizeEach(q Quantizer, block []float32, a, b float64) (codes []uint16, literals []float32, last, worst float64) {
	codes = make([]uint16, len(block))
	for i, v := range block {
		code, recon, ok := q.Quantize(float64(v), a*float64(i)+b)
		if !ok {
			codes[i], last = EscapeCode, float64(v)
			literals = append(literals, v)
			continue
		}
		codes[i], last = uint16(code), float64(recon)
		if d := math.Abs(float64(v) - last); d > worst {
			worst = d
		}
	}
	return codes, literals, last, worst
}

// checkQuantizeLinear runs QuantizeLinear on both paths and quantizeEach over
// one block and requires the same codes, literal bits, last reconstruction
// bits and Tally (span and worst error, held to the bound), then holds DequantizeLinear to the reference on the
// result. It returns the codes for callers that also pin them.
func checkQuantizeLinear(t *testing.T, eb float64, block []float32, a, b float64) []uint16 {
	t.Helper()
	q := NewQuantizer(eb)
	wantCodes, wantLits, wantLast, wantWorst := quantizeEach(q, block, a, b)
	f := make([]float64, len(block))
	for i, v := range block {
		f[i] = float64(v)
	}
	wantSpan := NoCodes
	for _, c := range wantCodes {
		if c != EscapeCode {
			wantSpan = wantSpan.With(c)
		}
	}
	lanes.BothPaths(func(path string) {
		codes := make([]uint16, len(block))
		tally := Tally{Span: NoCodes, Worst: eb / 8} // carried in: the worst only grows
		lits, last, tally := q.QuantizeLinear(codes, block, f, a, b, []float32{42}, tally)
		if !slices.Equal(codes, wantCodes) {
			t.Fatalf("%s eb=%g a=%g b=%g: codes\n got %v\nwant %v", path, eb, a, b, codes, wantCodes)
		}
		if tally.Span != wantSpan {
			t.Fatalf("%s eb=%g a=%g b=%g: code span %v, want %v", path, eb, a, b, tally.Span, wantSpan)
		}
		if w := max(wantWorst, eb/8); math.Float64bits(tally.Worst) != math.Float64bits(w) || !(tally.Worst <= eb) {
			t.Fatalf("%s eb=%g a=%g b=%g: worst error %v, want %v (bound %v)", path, eb, a, b, tally.Worst, w, eb)
		}
		if len(lits) != 1+len(wantLits) || lits[0] != 42 {
			t.Fatalf("%s eb=%g a=%g b=%g: literals %v, want [42] followed by %v", path, eb, a, b, lits, wantLits)
		}
		for i, w := range wantLits {
			if math.Float32bits(lits[1+i]) != math.Float32bits(w) {
				t.Fatalf("%s eb=%g a=%g b=%g: literal %d is %#x, want %#x", path, eb, a, b, i, math.Float32bits(lits[1+i]), math.Float32bits(w))
			}
		}
		if math.Float64bits(last) != math.Float64bits(wantLast) {
			t.Fatalf("%s eb=%g a=%g b=%g: last reconstruction %v, want %v", path, eb, a, b, last, wantLast)
		}
	})
	checkDequantizeLinear(t, q, wantCodes, wantLits, a, b)
	return wantCodes
}

// absMaxOf is the largest magnitude bits of vs, by a plain loop.
func absMaxOf(vs []float32) lanes.AbsMax {
	var m uint32
	for _, v := range vs {
		m = max(m, math.Float32bits(v)&0x7fffffff)
	}
	return lanes.AbsMax(m)
}

// literalSections is a Sections whose literal cursor reads lits.
func literalSections(lits []float32) *Sections {
	var raw []byte
	for _, v := range lits {
		raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
	}
	return &Sections{lits: raw}
}

// tableSpans are the code spans checkDequantizeLinear runs a block under: none
// (no reconstruction table), the block's own codes', and the whole alphabet,
// whose table the clamp keeps the escape code inside.
func tableSpans(codes []uint16) []CodeSpan {
	own := NoCodes
	for _, c := range codes {
		if c != EscapeCode {
			own = own.With(c)
		}
	}
	return []CodeSpan{{}, own, {1, QuantAlphabet - 1}}
}

// checkDequantizeLinear runs DequantizeLinear on both paths, under each of
// tableSpans, and requires, bit for bit, a per-element Dequantize against
// a·i + b with the literals taken in element order, every literal read
// exactly once. A zero-line block (a = b = +0) of 8 elements or more reads
// the reconstruction table under the two spans that admit one.
func checkDequantizeLinear(t *testing.T, q Quantizer, codes []uint16, lits []float32, a, b float64) {
	t.Helper()
	want := make([]float32, len(codes))
	next := 0
	for i, c := range codes {
		if c == EscapeCode {
			want[i] = lits[next]
			next++
			continue
		}
		want[i] = q.Dequantize(int(c), a*float64(i)+b)
	}
	// A blob's worth of codes, so that the table's size gate admits any span.
	blob := make([]uint16, 8*QuantAlphabet)
	lanes.BothPaths(func(path string) {
		for _, span := range tableSpans(codes) {
			out := make([]float32, len(codes)+1)
			out[len(codes)] = 7 // the element past the block stays untouched
			s := literalSections(lits)
			s.Codes, s.Span = blob, span
			m := q.DequantizeLinear(out[:len(codes)], codes, a, b, s)
			if wm := absMaxOf(want); m != wm {
				t.Fatalf("%s a=%g b=%g span %v: verdict bits %#x, the values' %#x", path, a, b, span, m, wm)
			}
			for i, w := range want {
				if math.Float32bits(out[i]) != math.Float32bits(w) {
					t.Fatalf("%s a=%g b=%g span %v: element %d (code %d) is %#x, want %#x", path, a, b, span, i, codes[i], math.Float32bits(out[i]), math.Float32bits(w))
				}
			}
			if out[len(codes)] != 7 || !s.LiteralsConsumed() {
				t.Fatalf("%s span %v: wrote past the block (%v) or left literals unread (consumed %v)", path, span, out[len(codes)], s.LiteralsConsumed())
			}
			if s.table != nil {
				tablePool.Put(s.table)
			}
		}
	})
}

// TestQuantizeLinearMatchesQuantize: sz2's regression-block kernel writes
// Quantize's arithmetic a second time (twice, with the AVX2 lanes), so both
// paths are held to a per-element Quantize loop bit for bit on every path
// through it.
func TestQuantizeLinearMatchesQuantize(t *testing.T) {
	const R = QuantRadius
	ulp1 := math.Ldexp(1, -23) // float32 spacing just above 1
	negZero := float32(math.Copysign(0, -1))
	nan32, inf32 := float32(math.NaN()), float32(math.Inf(1))
	sNaN := math.Float32frombits(0x7f800001) // a float64 round trip would quiet it
	cases := []struct {
		name  string
		eb    float64
		a, b  float64
		block []float32
		want  []uint16 // pinned codes where the case is built by hand
	}{
		{"non-finite", 0.5, 0, 0, []float32{1, nan32, 2, inf32, -inf32, 3, sNaN},
			[]uint16{R + 1, EscapeCode, R + 2, EscapeCode, EscapeCode, R + 3, EscapeCode}},
		// eb 0.5 makes the bin width 1, so the scaled residual is the value.
		{"code-range edges", 0.5, 0, 0, []float32{R - 0.5, -(R - 0.5), R - 0.75, -(R - 0.75), R - 1.5, -(R - 1.5)},
			[]uint16{EscapeCode, EscapeCode, 2*R - 1, 1, 2*R - 1, 1}},
		{"ties away from zero", 0.5, 0, 0, []float32{0.5, -0.5, 2.5, -2.5, 1.5, -1.5},
			[]uint16{R + 1, R - 1, R + 3, R - 3, R + 2, R - 2}},
		{"ties on a line", 0.5, 1, 0.5, []float32{0, 2, 2, 5},
			[]uint16{R - 1, R + 1, R - 1, R + 2}},
		{"negative zero", 0.5, 0, 0, []float32{negZero, 0, negZero},
			[]uint16{R, R, R}},
		{"negative zero prediction", 0.5, math.Copysign(0, -1), math.Copysign(0, -1), []float32{negZero, 0, 0.25},
			[]uint16{R, R, R}},
		// The bound is 0.75 ulp and the prediction sits 0.7 ulp above 1:
		// the residual is in range (k = 0) but float32(pred) rounds to 1+ulp,
		// one full ulp from the data, so the round-trip check escapes.
		{"float32 round-trip escape", 0.75 * ulp1, 0, 1 + 0.7*ulp1, []float32{1, 1, 1},
			[]uint16{EscapeCode, EscapeCode, EscapeCode}},
		{"float32 round-trip escape in lanes", 0.75 * ulp1, 0, 1 + 0.7*ulp1,
			[]float32{1, float32(1 + ulp1), 1, float32(1 + ulp1), float32(1 + ulp1), 1},
			[]uint16{EscapeCode, R, EscapeCode, R, R, EscapeCode}},
		// On the zero line at eb 0.3 (bin width 0.6, inexact) these values sit
		// at a bin's edge: |v − k·0.6| is the bound in float64 and past it
		// once k·0.6 is rounded to float32, so only the round-trip check
		// escapes them.
		{"float32 round-trip escape on the zero line", 0.3, 0, 0,
			[]float32{0.90000004, 4.5, 0.1, 7.5, 8.7, 9.3, 10.5, 0.2, 4.5},
			[]uint16{EscapeCode, EscapeCode, R, EscapeCode, EscapeCode, EscapeCode, EscapeCode, R, EscapeCode}},
		// a·3 + b is 0 when the product is rounded before the add and
		// −2.8e-17 when it is not (a fused multiply-add): the bound is small
		// enough that lane 3's code tells the two apart.
		{"cancelling line", 1e-17, 0.1, cancelB, []float32{0, 0, 0, 0, 0},
			[]uint16{EscapeCode, EscapeCode, EscapeCode, R, EscapeCode}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := checkQuantizeLinear(t, c.eb, c.block, c.a, c.b); !slices.Equal(got, c.want) {
				t.Fatalf("codes %v, want %v", got, c.want)
			}
		})
	}
	// Noisy lines of every length up to three quads, and of a block's:
	// most residuals quantize, every 17th is pushed out of the code range,
	// and the longer blocks carry non-finite elements. Each length also runs
	// with one forced escape in every lane position and in the tail, the
	// block's only escape when n < 17.
	rng := rand.New(rand.NewPCG(25, 25))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 255, 256} {
		a, b := float64(float32(rng.NormFloat64()*1e-3)), float64(float32(rng.NormFloat64()))
		block := make([]float32, n)
		for i := range block {
			noise := rng.NormFloat64() * 0.05
			if i%17 == 16 {
				noise *= 1000
			}
			block[i] = float32(a*float64(i) + b + noise)
		}
		if n > 100 {
			block[7], block[64], block[99] = nan32, -inf32, negZero
		}
		t.Run(fmt.Sprintf("noisy line n=%d", n), func(t *testing.T) {
			for _, eb := range []float64{1e-1, 1e-4, 1e-7} {
				checkQuantizeLinear(t, eb, block, a, b)
				for _, e := range escapePositions(n) {
					// Out of range, and NaN, which fails every ordered test.
					for _, v := range []float32{1e30, nan32} {
						escaped := slices.Clone(block)
						escaped[e] = v
						if codes := checkQuantizeLinear(t, eb, escaped, a, b); codes[e] != EscapeCode {
							t.Fatalf("eb=%g: element %d (%v) of %d did not escape", eb, e, v, n)
						}
					}
				}
			}
		})
	}
}

// TestZeroLineKernels: the zero line (a = b = +0) has a quantize loop and a
// reconstruction table of its own, held here to the per-element references
// on weight-like blocks of every length up to three quads and of a block's,
// at the bin widths REL 1e-2 to 1e-5 give a ±1 range, with −0 elements and
// one escape (out of range, NaN, +Inf or −Inf) in every lane position and in
// the tail.
func TestZeroLineKernels(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 55))
	negZero := float32(math.Copysign(0, -1))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 255, 256} {
		block := make([]float32, n)
		for i := range block {
			block[i] = float32(0.03 * (rng.ExpFloat64() - rng.ExpFloat64()))
			if i%5 == 3 {
				block[i] = negZero
			}
		}
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for _, rel := range []float64{1e-2, 1e-3, 1e-4, 1e-5} {
				eb := 2 * rel
				checkQuantizeLinear(t, eb, block, 0, 0)
				for _, e := range escapePositions(n) {
					for _, v := range []float32{1e30, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
						escaped := slices.Clone(block)
						escaped[e] = v
						if codes := checkQuantizeLinear(t, eb, escaped, 0, 0); codes[e] != EscapeCode {
							t.Fatalf("rel=%g: element %d (%v) of %d did not escape", rel, e, v, n)
						}
					}
				}
			}
		})
	}
}

// cancelB is −(0.1·3) rounded to float64 (−0.30000000000000004), the
// intercept that cancels 0.1·3 exactly when the product is rounded first. A
// constant expression would be evaluated exactly instead.
var cancelB = math.Float64frombits(0xbfd3333333333334)

// escapePositions lists the indices a per-lane test forces an escape at:
// every index of a block up to three quads long, otherwise every lane of
// the first, a middle and the last quad, and every tail element.
func escapePositions(n int) []int {
	if n <= 12 {
		pos := make([]int, n)
		for i := range pos {
			pos[i] = i
		}
		return pos
	}
	pos := []int{0, 1, 2, 3, 128, 129, 130, 131}
	for i := n&^3 - 4; i < n; i++ {
		pos = append(pos, i)
	}
	return pos
}

// TestDequantizeLinearMatchesDequantize: the decode kernels against a
// per-element Dequantize loop on random codes over the whole alphabet, on a
// fitted line and on the zero line, with one escape in every lane position
// and in the tail, with every element escaped, and on the line that tells a
// fused multiply-add apart.
func TestDequantizeLinearMatchesDequantize(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 27))
	q := NewQuantizer(1e-3)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 255, 256} {
		a, b := float64(float32(rng.NormFloat64()*1e-3)), float64(float32(rng.NormFloat64()))
		codes := make([]uint16, n)
		for i := range codes {
			codes[i] = uint16(1 + rng.IntN(QuantAlphabet-1))
		}
		all := make([]uint16, n)
		lits := make([]float32, n)
		for i := range lits {
			lits[i] = float32(i) + 0.25
		}
		// The fitted line and the zero line, which reads the table.
		for _, line := range [][2]float64{{a, b}, {0, 0}} {
			checkDequantizeLinear(t, q, codes, nil, line[0], line[1])
			for _, e := range escapePositions(n) {
				escaped := slices.Clone(codes)
				escaped[e] = EscapeCode
				checkDequantizeLinear(t, q, escaped, []float32{float32(e) + 0.5}, line[0], line[1])
			}
			checkDequantizeLinear(t, q, all, lits, line[0], line[1])
		}
	}
	checkDequantizeLinear(t, NewQuantizer(1e-17), []uint16{QuantRadius, QuantRadius, QuantRadius, QuantRadius, QuantRadius}, nil, 0.1, cancelB)
}

// TestMinMaxMatchesGoLoop: the scan kernel against the Go loop, through
// lanes.Scan and ValueRange, with NaN, ±Inf, ±0, denormals and the largest
// finite value at index 0, inside a lane and in the tail, on lengths up to
// three quads and past the 8-wide loop. ValueRange must be NaN when an
// element is NaN, wherever it sits.
func TestMinMaxMatchesGoLoop(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{
		float32(math.NaN()), math.Float32frombits(0x7f800001), math.Float32frombits(0xffc00000),
		float32(math.Inf(1)), float32(math.Inf(-1)), 0, negZero,
		math.Float32frombits(1), math.Float32frombits(0x807fffff), math.MaxFloat32, -math.MaxFloat32,
	}
	rng := rand.New(rand.NewPCG(26, 26))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 255, 256, 1001} {
		base := make([]float32, n)
		for i := range base {
			base[i] = float32(rng.NormFloat64())
		}
		checkMinMax(t, base)
		for _, v := range specials {
			for _, at := range []int{0, 1, 2, 3, 5, 9, n / 2, n - 1} {
				if at >= n {
					continue
				}
				data := slices.Clone(base)
				data[at] = v
				checkMinMax(t, data)
				constant := make([]float32, n)
				constant[at] = v
				checkMinMax(t, constant)
			}
		}
		// Zeros of both signs only: lo and hi are the first element's zero.
		zeros := make([]float32, n)
		for i := range zeros {
			if rng.IntN(2) == 0 {
				zeros[i] = negZero
			}
		}
		checkMinMax(t, zeros)
		zeros[0] = negZero
		checkMinMax(t, zeros)
	}
}

// checkMinMax holds lanes.Scan and ValueRange on the kernel path to the Go
// loop.
func checkMinMax(t *testing.T, data []float32) {
	t.Helper()
	type result struct {
		lo, hi float32
		bits   uint32
		r      float64
	}
	var got []result
	lanes.BothPaths(func(string) {
		e := lanes.Scan(data)
		got = append(got, result{e.Lo, e.Hi, e.AbsBits, ValueRange(data)})
	})
	hasNaN := slices.ContainsFunc(data, func(v float32) bool { return v != v })
	for _, g := range got {
		w := got[len(got)-1] // the Go loop's
		if g.bits != w.bits || math.Float64bits(g.r) != math.Float64bits(w.r) {
			t.Fatalf("n=%d %v: kernel gives magnitude %#x, range %v; the Go loop %#x, %v", len(data), data[:min(len(data), 12)], g.bits, g.r, w.bits, w.r)
		}
		if hasNaN && !math.IsNaN(g.r) {
			t.Fatalf("n=%d %v: ValueRange %v, want NaN", len(data), data[:min(len(data), 12)], g.r)
		}
		if hasNaN {
			continue
		}
		if g.lo != w.lo || g.hi != w.hi {
			t.Fatalf("n=%d: kernel gives [%v, %v], the Go loop [%v, %v]", len(data), g.lo, g.hi, w.lo, w.hi)
		}
		if w.lo == w.hi && (math.Float32bits(g.lo) != math.Float32bits(w.lo) || math.Float32bits(g.hi) != math.Float32bits(w.hi)) {
			t.Fatalf("n=%d: equal bounds %#x, %#x, the Go loop's %#x", len(data), math.Float32bits(g.lo), math.Float32bits(g.hi), math.Float32bits(w.lo))
		}
	}
}

// FuzzQuantizeLinear: on both paths the kernel equals a per-element Quantize
// loop on any block (the raw bytes as float32s), bound and line, the decode
// kernel reads the result back as a per-element Dequantize loop does, and
// the block's lanes.Scan and ValueRange agree with the Go loop.
func FuzzQuantizeLinear(f *testing.F) {
	le := func(vs ...float32) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
		return out
	}
	f.Add(le(1, 2, 3, 4, 5), 0.01, 1.0, 0.0)
	f.Add(le(0.5, -0.5, 2.5, QuantRadius-0.5), 0.5, 0.0, 0.0)
	f.Add(le(1, 1), 0.75*math.Ldexp(1, -23), 0.0, 1+0.7*math.Ldexp(1, -23))
	f.Add(le(float32(math.NaN()), float32(math.Inf(-1)), float32(math.Copysign(0, -1))), 1e-3, -2.0, 3.0)
	f.Add(le(1, 2, 3, 4, 5, 6, 7, 8, 1e30, 10, 11), 0.01, 1.0, 0.0)
	f.Add(le(0, 0, 0, 0, 0, 0, 0, 0, 0), 1e-17, 0.1, cancelB)
	// The zero line at REL 1e-2 and 1e-5 of a ±1 range: −0, NaN, ±Inf and
	// an out-of-range value in different lanes, and in the tail.
	zl := le(0.01, float32(math.Copysign(0, -1)), -0.02, float32(math.NaN()), 0.003, float32(math.Inf(1)),
		-0.07, 1e30, 0.5, float32(math.Inf(-1)), -0.25)
	f.Add(zl, 2e-2, 0.0, 0.0)
	f.Add(zl, 2e-5, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, raw []byte, eb, a, b float64) {
		block := make([]float32, min(len(raw)/4, 256))
		for i := range block {
			block[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		if len(block) > 0 {
			checkMinMax(t, block)
		}
		if !(eb > 0) {
			t.Skip("NewQuantizer requires a positive bound")
		}
		checkQuantizeLinear(t, eb, block, a, b)
	})
}

// TestFastRoundMatchesBranchy: the branch-free round gives the codes the
// sign-tested one it replaced gave, on edge values and on 10⁶ seeded
// randoms across the code range.
func TestFastRoundMatchesBranchy(t *testing.T) {
	branchy := func(x float64) int {
		if x >= 0 {
			return int(float64(int64(x + 0.5)))
		}
		return int(float64(int64(x - 0.5)))
	}
	check := func(x float64) {
		if got, want := fastRound(x), branchy(x); got != want {
			t.Fatalf("fastRound(%v) = %d, the branchy round gives %d", x, got, want)
		}
	}
	edges := []float64{0, 0.5, 1.5, 2.5, QuantRadius - 1.5, math.Nextafter(QuantRadius-0.5, 0),
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 0.49999999999999994, math.Nextafter(1.5, 0),
		math.SmallestNonzeroFloat64, 1e-300, 1, 2047}
	for _, x := range edges {
		check(x)
		check(-x)
	}
	rng := rand.New(rand.NewPCG(6, 6))
	for range 1_000_000 {
		x := (2*rng.Float64() - 1) * (QuantRadius - 0.5)
		if rng.IntN(4) == 0 {
			x = math.Trunc(x) + math.Copysign(0.5, x) // an exact tie
		}
		check(x)
	}
}
