// Package lanes holds the module's one CPU check and the eight float32 lane
// kernels more than one codec stage shares: the range scan behind every REL
// bound and SZx constant block (Scan), the delta encoder's residual pass
// (Residual) and constant-residual check (Within), the decoder's add-back
// (Add) and constant add-back (Offset), the server's fold (AddScaled) and
// its fold of a constant residual straight from the reference
// (AddScaledOffset), and the scale behind its mean and
// tensor.StateDict.Scale (Scale).
// On amd64 CPUs with AVX2 each runs eight float32 lanes at a
// time in Go assembly (lanes_amd64.s) and Go runs the tail. A lane does what
// one iteration of the Go loop does: subtractions, multiplies and adds are
// separate instructions (no FMA), with the operands in the order Go's SUBSS,
// MULSS and ADDSS take them, so even a NaN result carries the same payload;
// ranges are ordered compares and a largest magnitude is an integer max over
// the bits. The Go loops stay as the reference the tests hold the kernels
// to, and as the only path elsewhere.
//
// The kernels that touch a codec's private state (sz2's block scoring,
// ebcl's quantize and dequantize, huffman's BMI2 loops) stay in their
// packages and branch on On. It is a leaf package, so every package with
// kernels can import it.
package lanes

import "math"

// on is set once at start-up from detect; BothPaths clears it for a call.
var on = detect()

// On reports whether the module's amd64 kernels run: AVX2 with the OS
// saving YMM state, and BMI1 and BMI2. It is false on other architectures.
func On() bool { return on }

// BothPaths calls fn on the kernels and then, with every kernel of the module
// switched off, on the Go loops, so a test holds the two to each other on the
// same input. path names the one fn runs on; without the kernels fn runs
// once, on the Go loops. Only tests call it, and not concurrently with code
// that reads On.
func BothPaths(fn func(path string)) {
	if on {
		fn("kernels")
		on = false
		defer func() { on = true }()
	}
	fn("Go")
}

// infBits is float32 +Inf's bit pattern: a magnitude's bits reach it exactly
// when the value is infinite, and pass it when the value is a NaN.
const infBits = 0x7f800000

// Extent is what one scan keeps of an array: its least and greatest values
// by ordered compares and the bits of its largest magnitude with the sign
// cleared. Lo and Hi are meaningful only while the array is finite, and a
// zero bound's sign only when Lo == Hi.
type Extent struct {
	Lo, Hi  float32
	AbsBits uint32
}

// with returns e grown to hold v.
func (e Extent) with(v float32) Extent {
	if v < e.Lo {
		e.Lo = v
	}
	if v > e.Hi {
		e.Hi = v
	}
	e.AbsBits = max(e.AbsBits, math.Float32bits(v)&^(1<<31))
	return e
}

// Finite reports whether the array holds neither a NaN nor an infinity.
func (e Extent) Finite() bool { return e.AbsBits < infBits }

// Span is Hi − Lo in float64, NaN when the array holds a NaN and +Inf when
// it holds an infinity. For finite arrays it is bit for bit what Go's
// max − min gives: when the bounds differ a zero bound's sign cannot show,
// and equal bounds are one element, because on a tie both paths keep the
// same element as Lo and as Hi (the Go loop the first, every VMINPS and
// VMAXPS its second source), so the difference is +0.
func (e Extent) Span() float64 {
	switch {
	case e.AbsBits > infBits:
		return math.NaN()
	case e.AbsBits == infBits:
		return math.Inf(1)
	}
	return float64(e.Hi) - float64(e.Lo)
}

// MaxAbs is the array's largest magnitude.
func (e Extent) MaxAbs() float64 { return float64(math.Float32frombits(e.AbsBits)) }

// Scan returns data's extent. When all elements compare equal, Lo and Hi are
// the first element on both paths, so a zero's sign shows in Lo + Hi. data
// must not be empty.
func Scan(data []float32) Extent {
	e := Extent{data[0], data[0], 0}
	tail := data
	if n8 := len(data) &^ 7; on && n8 > 0 {
		e.Lo, e.Hi, e.AbsBits = scanAVX2(data[:n8])
		tail = data[n8:]
	}
	for _, v := range tail {
		e = e.with(v)
	}
	if e.Lo == e.Hi {
		e.Lo, e.Hi = data[0], data[0]
	}
	return e
}

// Residual fills res[i] = data[i] − ref[i] and returns the extents of data
// and of res. data must not be empty; res and ref must be at least as long.
func Residual(res, data, ref []float32) (d, r Extent) {
	res, ref = res[:len(data)], ref[:len(data)]
	if n8 := len(data) &^ 7; on && n8 > 0 {
		d.Lo, d.Hi, r.Lo, r.Hi, d.AbsBits, r.AbsBits = residualAVX2(res[:n8], data[:n8], ref[:n8])
		return residualFrom(res[n8:], data[n8:], ref[n8:], d, r)
	}
	r0 := data[0] - ref[0]
	return residualFrom(res, data, ref, Extent{data[0], data[0], 0}, Extent{r0, r0, 0})
}

// residualFrom is Residual's Go loop, continuing from d and r.
func residualFrom(res, data, ref []float32, d, r Extent) (Extent, Extent) {
	for i, v := range data {
		w := v - ref[i]
		res[i] = w
		d, r = d.with(v), r.with(w)
	}
	return d, r
}

// AbsMax is a running largest magnitude kept as float32 bits with the sign
// cleared, as Extent.AbsBits is: every value it has taken in is finite
// exactly when it is below +Inf's bits. The zero value has taken in nothing.
type AbsMax uint32

// With returns m grown by v.
func (m AbsMax) With(v float32) AbsMax {
	return max(m, AbsMax(math.Float32bits(v)&^(1<<31)))
}

// Finite reports whether every value m has taken in is finite.
func (m AbsMax) Finite() bool { return m < infBits }

// Add adds the reference back, data[i] += ref[i], and returns the sums'
// largest magnitude: the decoder's finiteness verdict on a residual's
// reconstruction. ref must be at least as long as data. The kernel adds
// data to ref, as the compiled Go loop's ADDSS does; AddScaled adds in the
// other order, so the two stay apart.
func Add(data, ref []float32) AbsMax {
	ref = ref[:len(data)]
	var m AbsMax
	if n8 := len(data) &^ 7; on && n8 > 0 {
		m = AbsMax(addAVX2(data[:n8], ref[:n8]))
		data, ref = data[n8:], ref[n8:]
	}
	for i, r := range ref {
		data[i] += r
		m = m.With(data[i])
	}
	return m
}

// Offset writes a constant residual's reconstruction, dst[i] = ref[i] + v:
// one pass for filling dst with v and then calling Add, with ref the first
// operand as there, so even NaN payloads match. ref must be at least as long
// as dst.
func Offset(dst, ref []float32, v float32) {
	ref = ref[:len(dst)]
	if n8 := len(dst) &^ 7; on && n8 > 0 {
		offsetAVX2(dst[:n8], ref[:n8], v)
		dst, ref = dst[n8:], ref[n8:]
	}
	for i, r := range ref {
		dst[i] = r + v
	}
}

// Within reports whether |data[i] − fl(ref[i] + mid)| ≤ eb holds in float64
// for every i: the constant residual's check of the decoder's exact output.
// The kernel compares in float64 as the Go loop does (a float32 compare would
// refuse a sliver of valid inputs), ordered and quiet, so a NaN difference
// passes on both paths. ref must be at least as long as data.
func Within(data, ref []float32, mid float32, eb float64) bool {
	ref = ref[:len(data)]
	if n8 := len(data) &^ 7; on && n8 > 0 {
		if !withinAVX2(data[:n8], ref[:n8], mid, eb) {
			return false
		}
		data, ref = data[n8:], ref[n8:]
	}
	for i, v := range data {
		if math.Abs(float64(v)-float64(float32(ref[i]+mid))) > eb {
			return false
		}
	}
	return true
}

// AddScaled is the fold, a[i] += w·b[i], of the server and of
// tensor.StateDict.AddScaled. b must be at least as long as a.
func AddScaled(a, b []float32, w float32) {
	b = b[:len(a)]
	if n8 := len(a) &^ 7; on && n8 > 0 {
		addScaledAVX2(a[:n8], b[:n8], w)
		a, b = a[n8:], b[n8:]
	}
	for i := range a {
		a[i] += w * b[i]
	}
}

// AddScaledOffset folds a constant residual without writing it out:
// a[i] += w·fl(ref[i] + v), the same bits as Offset into a buffer followed by
// AddScaled from it. The kernel keeps each operation's operand order from
// those two (ref first in the sum, the sum first in the product, a first in
// the add), so even NaN payloads match; which payload the Go loop keeps when
// a and the product are both NaNs is the compiler's order, as for Offset.
// ref must be at least as long as a.
func AddScaledOffset(a, ref []float32, v, w float32) {
	ref = ref[:len(a)]
	if n8 := len(a) &^ 7; on && n8 > 0 {
		addScaledOffsetAVX2(a[:n8], ref[:n8], v, w)
		a, ref = a[n8:], ref[n8:]
	}
	for i := range a {
		a[i] += w * (ref[i] + v)
	}
}

// Scale writes dst[i] = src[i]·w: the aggregator's mean in one pass, and
// tensor.StateDict.Scale in place. dst may be src; otherwise the two must
// not overlap. src must be at least as long as dst.
func Scale(dst, src []float32, w float32) {
	src = src[:len(dst)]
	if n8 := len(dst) &^ 7; on && n8 > 0 {
		scaleAVX2(dst[:n8], src[:n8], w)
		dst, src = dst[n8:], src[n8:]
	}
	for i, v := range src {
		dst[i] = v * w
	}
}
