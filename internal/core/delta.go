package core

// Cross-round delta encoding, the v3 stream format: residual formation
// (computeResidual — the finiteness and range test that makes a tensor a
// residual candidate) and the constant-residual check (constantResidual).
// Whether a candidate's residual is then kept — as one constant, by the
// both-ways encode of a small tensor or by the sampled pick for a large one —
// with the mode-byte flip and the DeltaBytesSaved accounting, is encodeBlob's
// decision (encode.go), made once for plain and chunked blobs alike.

import "repro/internal/lanes"

// computeResidual fills res[i] = data[i] − ref[i] and reports the value range
// of data, the residual's extent r, and mag = max|data| + max|residual|, the
// magnitude residualBound's rounding allowance scales with. ok is false
// when any element of data, ref, or the residual is non-finite: float32
// overflow (or Inf − Inf) would make ref + residual' diverge from data by more
// than any bound, so such tensors must take the absolute path, which
// preserves non-finite values losslessly exactly as before. A non-finite
// element shows in its array's magnitude bits (ref alone cannot hide one:
// finite data with non-finite ref makes res non-finite), and that array's
// range is then NaN or +Inf. One pass (lanes.Residual) reads data and ref.
func computeResidual(res, data, ref []float32) (rangeData float64, r lanes.Extent, mag float64, ok bool) {
	if len(data) == 0 {
		return 0, r, 0, false
	}
	d, r := lanes.Residual(res, data, ref)
	return d.Span(), r, d.MaxAbs() + r.MaxAbs(), d.Finite() && r.Finite()
}

// residualBound shrinks a resolved ABS bound for the residual candidate. The
// codec holds |residual' − residual| to the bound it is given, but the decoder
// returns fl(ref + residual') for data the encoder saw as fl(data − ref): two
// float32 roundings, each at most 2⁻²⁴ of its operand, which the codec never
// sees. Their sum is at most 2⁻²⁴·(max|residual| + max|data| + eb) — the
// factor 1 + 2⁻²⁰ covers the second-order terms — and comes off the bound.
// ok is false when that allowance eats half the bound (|x| ≳ 8·10⁶·eb): the
// residual would be quantized much finer than the data needs, so the tensor
// takes the absolute path, whose quantizer checks the float32 it stores.
func residualBound(eb, mag float64) (shrunk float64, ok bool) {
	allow := (mag + eb) / (1 << 24) * (1 + 1.0/(1<<20))
	return eb - allow, allow < eb/2
}

// constantResidual returns the float32 midpoint of the residual's extent r —
// SZx's constant block over a whole tensor — when the decoder's exact output
// for it, fl(ref[i] + mid), lies within eb of data[i] for every i; ok is false
// when any element misses (lanes.Within), and the residual takes the codec.
func constantResidual(data, ref []float32, r lanes.Extent, eb float64) (mid float32, ok bool) {
	mid = r.Lo + (r.Hi-r.Lo)/2
	return mid, lanes.Within(data, ref, mid, eb)
}
