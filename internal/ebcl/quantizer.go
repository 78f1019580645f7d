package ebcl

// The linear quantizer shared by the prediction-based compressors (SZ2,
// SZ3). Prediction residuals are mapped to integer codes in bins of width
// 2·ebAbs, guaranteeing |reconstructed − original| ≤ ebAbs. Residuals whose
// code would fall outside ±(Radius−1) take the escape code 0 and are stored
// as uncompressed IEEE-754 literals ("unpredictable points" in SZ jargon).

import "math"

const (
	// QuantRadius is the half-width of the quantization code alphabet.
	QuantRadius = 2048
	// QuantAlphabet is the total symbol count: escape code 0 plus
	// 2·Radius−1 residual codes centered at QuantRadius.
	QuantAlphabet = 2 * QuantRadius
	// EscapeCode marks an unpredictable point stored as a literal.
	EscapeCode = 0
)

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
// bits. f is the block widened to float64. It returns literals and the last
// reconstruction, the next block's Lorenzo seed. The result is a per-element
// Quantize loop bit for bit, written out because Quantize is over the
// inliner's budget of 80 and the call per element was a third of the
// encoder's CPU; regression predictions depend only on i, so without the
// call the iterations overlap.
func (q Quantizer) QuantizeLinear(codes []uint16, block []float32, f []float64, a, b float64, literals []float32) ([]float32, float64) {
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
				last = float64(rec32)
				continue
			}
		}
		codes[i] = EscapeCode
		literals = append(literals, block[i])
		last = v
	}
	return literals, last
}

// Dequantize reconstructs a value from a non-escape code and a prediction.
func (q Quantizer) Dequantize(code int, pred float64) float32 {
	return float32(pred + float64(code-QuantRadius)*q.binWidth)
}

// fastRound rounds half away from zero without a sign branch, which on
// weight-like residuals mispredicted about half the time; x ± 0.5 with x's
// sign is exactly what the branch picked, −0 included.
func fastRound(x float64) int {
	return int(x + math.Copysign(0.5, x))
}
