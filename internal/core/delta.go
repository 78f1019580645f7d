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
// when any element misses, and the residual takes the codec. mag is
// computeResidual's max|data| + max|residual|. Most constants are proved from
// r and mag alone (constantProved); lanes.Within reads the arrays again only
// for a span at the proof's edge.
func constantResidual(data, ref []float32, r lanes.Extent, mag, eb float64) (mid float32, ok bool) {
	mid = r.Lo + (r.Hi-r.Lo)/2
	return mid, constantProved(r.Span(), mag, eb) || lanes.Within(data, ref, mid, eb)
}

// constantProved reports that every reconstruction fl(ref[i] + mid) of a
// finite residual of extent span lies within eb of data[i], by error analysis
// alone. With u = 2⁻²⁴ three float32 roundings part it from data[i]:
// res[i] = fl(data[i] − ref[i]) is off the true difference by at most
// u·|res[i]|; mid is off the extent's true midpoint, which lies within span/2
// of every res[i], by at most u·(span/2 + |mid|); and fl(ref[i] + mid) is off
// by at most u·(|data[i]| + eb). |mid| and |res[i]| are at most max|residual|,
// so the miss is at most span/2 + 2u·(span + mag + eb); the gate takes 4u, which
// covers the second-order terms, and 2⁻¹⁴⁰ for the absolute error, at most
// 2⁻¹⁵⁰ a rounding, of subnormal results. The float64 evaluation of the sum
// errs by far less than that slack, and so does lanes.Within's float64 compare.
// Those per-rounding bounds hold only while no result overflows: the exact
// ref[i] + mid is then within eb of data[i], so mag + span + eb < 2¹²⁷ keeps it,
// and the float32 r.Hi − r.Lo, far below the 2¹²⁸ − 2¹⁰³ where float32 rounds
// to ±Inf.
func constantProved(span, mag, eb float64) bool {
	return span/2+(span+mag+eb)/(1<<22)+0x1p-140 <= eb && mag+span+eb < 0x1p127
}
