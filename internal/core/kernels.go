package core

// The delta kernels. On amd64 CPUs with AVX2 (cpu.Kernels) the two passes a
// residual tensor makes over its reference run eight float32 lanes at a time
// in Go assembly (kernels_amd64.s): the encoder's residual, which reads data
// and ref once and keeps both arrays' ranges as it goes, and the decoder's
// add-back. A lane's subtraction or addition is Go's, with the operands in
// the order SUBSS and ADDSS take them, so even a NaN result carries the same
// payload; the ranges are ordered compares and each array's largest
// magnitude is an integer max over its bits, as in ebcl.MinMax. Go runs the
// tail. The Go loops stay as the reference the tests hold the kernels to,
// and as the only path elsewhere.

import (
	"math"

	"repro/internal/cpu"
)

// useAVX2 is set once at start-up from the module's one CPU check. Tests
// clear it to run the Go loops.
var useAVX2 = cpu.Kernels()

// infBits is float32 +Inf's bit pattern: a magnitude's bits reach it exactly
// when the value is infinite, and pass it when the value is a NaN.
const infBits = 0x7f800000

// extent is what one scan keeps of an array: its least and greatest values
// by ordered compares and the bits of its largest magnitude with the sign
// cleared. lo and hi are meaningful only while absBits < infBits.
type extent struct {
	lo, hi  float32
	absBits uint32
}

// with returns e grown to hold v.
func (e extent) with(v float32) extent {
	if v < e.lo {
		e.lo = v
	}
	if v > e.hi {
		e.hi = v
	}
	e.absBits = max(e.absBits, math.Float32bits(v)&^(1<<31))
	return e
}

// span is hi − lo in float64, NaN when the array holds a NaN and +Inf when
// it holds an infinity. For finite arrays it is bit for bit what Go's
// max − min gives: when the bounds differ a zero bound's sign cannot show,
// and equal bounds are one element, because on a tie both paths keep the
// same element as lo and as hi (the Go loop the first, every VMINPS and
// VMAXPS its second source), so the difference is +0.
func (e extent) span() float64 {
	switch {
	case e.absBits > infBits:
		return math.NaN()
	case e.absBits == infBits:
		return math.Inf(1)
	}
	return float64(e.hi) - float64(e.lo)
}

// maxAbs is the array's largest magnitude.
func (e extent) maxAbs() float64 { return float64(math.Float32frombits(e.absBits)) }

// residualScan fills res[i] = data[i] − ref[i] and returns the extents of
// data and of res. data must not be empty; res and ref must be at least as
// long.
func residualScan(res, data, ref []float32) (d, r extent) {
	res, ref = res[:len(data)], ref[:len(data)]
	if n8 := len(data) &^ 7; useAVX2 && n8 > 0 {
		d.lo, d.hi, r.lo, r.hi, d.absBits, r.absBits = residualAVX2(res[:n8], data[:n8], ref[:n8])
		return residualFrom(res[n8:], data[n8:], ref[n8:], d, r)
	}
	r0 := data[0] - ref[0]
	return residualFrom(res, data, ref, extent{data[0], data[0], 0}, extent{r0, r0, 0})
}

// residualFrom is residualScan's Go loop, continuing from d and r.
func residualFrom(res, data, ref []float32, d, r extent) (extent, extent) {
	for i, v := range data {
		w := v - ref[i]
		res[i] = w
		d, r = d.with(v), r.with(w)
	}
	return d, r
}

// addInto adds the reference back: data[i] += ref[i]. ref must be at least
// as long as data.
func addInto(data, ref []float32) {
	ref = ref[:len(data)]
	if n8 := len(data) &^ 7; useAVX2 && n8 > 0 {
		addAVX2(data[:n8], ref[:n8])
		data, ref = data[n8:], ref[n8:]
	}
	for i, r := range ref {
		data[i] += r
	}
}
