package ebcl

// The linear quantizer shared by the prediction-based compressors (SZ2,
// SZ3). Prediction residuals are mapped to integer codes in bins of width
// 2·ebAbs, guaranteeing |reconstructed − original| ≤ ebAbs. Residuals whose
// code would fall outside ±(Radius−1) take the escape code 0 and are stored
// as uncompressed IEEE-754 literals ("unpredictable points" in SZ jargon).

import (
	"math"

	"repro/internal/lanes"
)

const (
	// QuantRadius is the half-width of the quantization code alphabet.
	QuantRadius = 2048
	// QuantAlphabet is the total symbol count: escape code 0 plus
	// 2·Radius−1 residual codes centered at QuantRadius.
	QuantAlphabet = 2 * QuantRadius
	// EscapeCode marks an unpredictable point stored as a literal.
	EscapeCode = 0
)

// CodeSpan is the least and greatest code other than EscapeCode a quantize
// loop wrote; Lo > Hi until it writes one (NoCodes). Format.Finish gives
// every code in it a count when it builds a blob's Huffman code from a
// sample. The zero value is a span no loop reports, since codes start at 1:
// it has Finish count every code.
type CodeSpan struct{ Lo, Hi uint16 }

// NoCodes is the span of a loop that has written no code yet.
var NoCodes = CodeSpan{Lo: math.MaxUint16}

// With returns s grown by code c.
func (s CodeSpan) With(c uint16) CodeSpan { return CodeSpan{min(s.Lo, c), max(s.Hi, c)} }

// Tally is what a quantize loop reports besides its codes: the CodeSpan of
// the codes it wrote, and Worst, the largest |v − rec32| among the elements
// it quantized. An escaped element is stored exactly and adds nothing.
// Format.Finish observes Worst over the bound as the blob's utilization.
type Tally struct {
	Span  CodeSpan
	Worst float64
}

// With returns t grown by one quantized element: its code and its error
// v − rec32. The rarely taken branch is cheaper than a float max.
func (t Tally) With(code uint16, diff float64) Tally {
	t.Span = t.Span.With(code)
	if d := math.Abs(diff); d > t.Worst {
		t.Worst = d
	}
	return t
}

// Quantizer maps residuals to codes and back for a fixed absolute bound.
type Quantizer struct {
	ebAbs    float64
	binWidth float64 // 2 · ebAbs
	invWidth float64 // 1 / binWidth: the serial Lorenzo chain waits on this op
}

// NewQuantizer returns a quantizer for the given absolute bound. ebAbs must
// be positive. The quantizer is a value type so hot decode loops carry it
// without a heap allocation.
func NewQuantizer(ebAbs float64) Quantizer {
	if ebAbs <= 0 {
		panic("ebcl: quantizer requires positive bound")
	}
	return Quantizer{ebAbs: ebAbs, binWidth: 2 * ebAbs, invWidth: 1 / (2 * ebAbs)}
}

// Quantize returns the code for original given the prediction pred, and the
// value the decoder will reconstruct. ok is false when the residual exceeds
// the code range — the caller must emit EscapeCode and a literal.
func (q Quantizer) Quantize(original, pred float64) (code int, recon float32, ok bool) {
	resid := original - pred
	scaled := resid * q.invWidth
	// The comparison form also rejects NaN and ±Inf residuals (from
	// non-finite inputs), which must be stored as literals.
	if !(scaled > -(QuantRadius-0.5) && scaled < QuantRadius-0.5) {
		return EscapeCode, 0, false
	}
	k := fastRound(scaled)
	rec := pred + float64(k)*q.binWidth
	// float32 rounding of the reconstruction can nudge the error past the
	// bound near bin edges; verify and escape when it does.
	rec32 := float32(rec)
	diff := original - float64(rec32)
	if !(diff <= q.ebAbs && diff >= -q.ebAbs) {
		return EscapeCode, 0, false
	}
	return k + QuantRadius, rec32, true
}

// QuantizeLinear quantizes a block against the line a·i + b: one code per
// element into codes, escaped elements appended to literals from block's
// bits, and t grown by every other element. f is the block widened to
// float64, which only the Go loop reads: a zero-line block (a = b = +0) on
// AVX2 runs the kernel, and f may be left unfilled for it. It returns
// literals, the last reconstruction (the next block's Lorenzo seed) and the
// grown t. The result is a per-element Quantize loop bit for bit, written out
// because Quantize is over the inliner's budget of 80 and the call per
// element was a third of the encoder's CPU; regression predictions depend
// only on i, so without the call the iterations overlap.
func (q Quantizer) QuantizeLinear(codes []uint16, block []float32, f []float64, a, b float64, literals []float32, t Tally) ([]float32, float64, Tally) {
	if lanes.On() && math.Float64bits(a)|math.Float64bits(b) == 0 {
		return q.quantizeZeroLine(codes, block, literals, t)
	}
	codes = codes[:len(f)]
	last := 0.0
	for i, v := range f {
		pred := a*float64(i) + b
		scaled := (v - pred) * q.invWidth
		if scaled > -(QuantRadius-0.5) && scaled < QuantRadius-0.5 {
			k := fastRound(scaled)
			rec32 := float32(pred + float64(k)*q.binWidth)
			if diff := v - float64(rec32); diff <= q.ebAbs && diff >= -q.ebAbs {
				codes[i] = uint16(k + QuantRadius)
				t = t.With(codes[i], diff)
				last = float64(rec32)
				continue
			}
		}
		codes[i] = EscapeCode
		literals = append(literals, block[i])
		last = v
	}
	return literals, last, t
}

// quantizeZeroLine is QuantizeLinear of a zero-line block on AVX2 lanes: the
// kernel writes the codes of whole quads, EscapeCode for every lane that
// escapes, and Go gathers their literals in element order, then quantizes
// the tail.
func (q Quantizer) quantizeZeroLine(codes []uint16, block []float32, literals []float32, t Tally) ([]float32, float64, Tally) {
	n4 := len(block) &^ 3
	last := 0.0
	if n4 > 0 {
		var worst float64
		var escaped bool
		var lo, hi uint32
		last, worst, escaped, lo, hi = quantizeZeroLineAVX2(codes[:n4], block[:n4], q.invWidth, q.binWidth, q.ebAbs)
		if hi != 0 { // a lane quantized
			t.Span = CodeSpan{min(t.Span.Lo, uint16(lo)), max(t.Span.Hi, uint16(hi))}
			t.Worst = max(t.Worst, worst)
		}
		if escaped {
			for i, c := range codes[:n4] {
				if c == EscapeCode {
					literals = append(literals, block[i])
				}
			}
			if codes[n4-1] == EscapeCode {
				last = float64(block[n4-1])
			}
		}
	}
	for i := n4; i < len(block); i++ {
		v := float64(block[i])
		code, recon, ok := q.Quantize(v, 0)
		if !ok {
			codes[i], last = EscapeCode, v
			literals = append(literals, block[i])
			continue
		}
		codes[i], last = uint16(code), float64(recon)
		t = t.With(codes[i], v-last)
	}
	return literals, last, t
}

// Dequantize reconstructs a value from a non-escape code and a prediction.
func (q Quantizer) Dequantize(code int, pred float64) float32 {
	return float32(pred + float64(code-QuantRadius)*q.binWidth)
}

// DequantizeLinear reverses QuantizeLinear: out[i] is codes[i] dequantized
// against a·i + b, or for an EscapeCode the next literal of s, taken in
// element order. out must hold len(codes) elements. It returns the largest
// magnitude it wrote, the block's share of the decoder's finiteness verdict.
// On AVX2 a zero-line block (a = b = +0) of 8 elements or more reads its
// values from s's reconstruction table where s has one (Sections.zeroTable).
// The Go loop runs the rest 4-wide, as predictions depend only on the index;
// an escape code (rare) drops the quad to the per-element step.
func (q Quantizer) DequantizeLinear(out []float32, codes []uint16, a, b float64, s *Sections) lanes.AbsMax {
	n := len(codes)
	out = out[:n]
	i := 0
	var m lanes.AbsMax
	var table []float32
	if lanes.On() {
		table = s.zeroTable(q, a, b, n)
	}
	if table != nil {
		// The kernel writes a value for every lane; escaped lanes are
		// overwritten with their literals, and since the kernel's value
		// for those lanes is no element's, the block is judged again.
		i = n &^ 7
		escaped, bits := dequantizeTableAVX2(out[:i], codes[:i], table, uint32(s.Span.Lo))
		m = lanes.AbsMax(bits)
		if escaped {
			m = 0
			for j, c := range codes[:i] {
				if c == EscapeCode {
					out[j] = s.NextLiteral()
				}
				m = m.With(out[j])
			}
		}
	}
	for ; i+4 <= n; i += 4 {
		c0, c1, c2, c3 := codes[i], codes[i+1], codes[i+2], codes[i+3]
		if c0 != EscapeCode && c1 != EscapeCode && c2 != EscapeCode && c3 != EscapeCode {
			out[i] = q.Dequantize(int(c0), a*float64(i)+b)
			out[i+1] = q.Dequantize(int(c1), a*float64(i+1)+b)
			out[i+2] = q.Dequantize(int(c2), a*float64(i+2)+b)
			out[i+3] = q.Dequantize(int(c3), a*float64(i+3)+b)
			m = m.With(out[i]).With(out[i+1]).With(out[i+2]).With(out[i+3])
			continue
		}
		for j := i; j < i+4; j++ {
			m = m.With(q.dequantizeAt(out, codes, j, a, b, s))
		}
	}
	for ; i < n; i++ {
		m = m.With(q.dequantizeAt(out, codes, i, a, b, s))
	}
	return m
}

// dequantizeAt writes and returns out[i]: codes[i] dequantized against
// a·i + b, or the next literal for an EscapeCode.
func (q Quantizer) dequantizeAt(out []float32, codes []uint16, i int, a, b float64, s *Sections) float32 {
	if codes[i] == EscapeCode {
		out[i] = s.NextLiteral()
	} else {
		out[i] = q.Dequantize(int(codes[i]), a*float64(i)+b)
	}
	return out[i]
}

// fastRound rounds half away from zero without a sign branch, which on
// weight-like residuals mispredicted about half the time; x ± 0.5 with x's
// sign is exactly what the branch picked, −0 included.
func fastRound(x float64) int {
	return int(x + math.Copysign(0.5, x))
}
