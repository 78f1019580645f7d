package ebcl

// The block kernels. On amd64 CPUs with AVX2 the SZ2 loops run four float64
// lanes at a time (float32 loads widen in the register, so no widened copy
// of the block is needed), the range scan eight float32 lanes. Each loop was
// already either independent elements
// or four independent partial sums, so a lane does exactly what one element
// or one partial sum does in the Go loop: multiplies and adds stay separate
// instructions (no FMA), float32 rounding uses the default MXCSR mode as Go's
// conversions do, range and bound tests are ordered compares, and Go combines
// the lanes in the Go loop's order and runs tails of fewer than four elements
// and every escape. The Go loops stay as the reference the tests hold the
// kernels to, and as the only path elsewhere.

import (
	"math"

	"repro/internal/cpu"
)

// useAVX2 is set once at start-up from the module's one CPU check
// (cpu.Kernels: AVX2 with the OS saving YMM state, BMI1, BMI2). Tests clear
// it to run the Go loops.
var useAVX2 = cpu.Kernels()

// AVX2 reports whether the block kernels run on AVX2 lanes; packages with
// kernels of their own select them by this one check.
func AVX2() bool { return useAVX2 }

// MinMax returns data's least and greatest values by ordered compares, and
// the bits of its largest magnitude with the sign cleared: above 0x7f800000
// exactly when data holds a NaN, in which case lo and hi are unspecified.
// Otherwise lo and hi equal the Go loop's (the first element for both when
// all elements are equal), except that a zero bound's sign is unspecified
// when lo < hi; hi − lo and lo + hi do not depend on it. data must not be
// empty.
func MinMax(data []float32) (lo, hi float32, maxAbsBits uint32) {
	n4 := len(data) &^ 3
	if !useAVX2 || n4 == 0 {
		return minMaxFrom(data, data[0], data[0], 0)
	}
	lo, hi, maxAbsBits = minMaxAVX2(data[:n4])
	lo, hi, maxAbsBits = minMaxFrom(data[n4:], lo, hi, maxAbsBits)
	if lo == hi {
		lo, hi = data[0], data[0]
	}
	return lo, hi, maxAbsBits
}

// minMaxFrom is MinMax's Go loop, continuing from lo, hi and maxAbsBits.
// Non-negative floats order like their bit patterns, so the largest
// magnitude is an integer max, and NaN/±Inf are whatever reaches the
// all-ones exponent.
func minMaxFrom(data []float32, lo, hi float32, maxAbsBits uint32) (float32, float32, uint32) {
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		maxAbsBits = max(maxAbsBits, math.Float32bits(v)&^(1<<31))
	}
	return lo, hi, maxAbsBits
}
