package agg

// The fold kernel. On amd64 CPUs with AVX2 (cpu.Kernels) the fold runs eight
// float32 lanes at a time in Go assembly (kernels_amd64.s). A lane does what
// one iteration of the Go loop does: a separate multiply, rounded to float32,
// then a separate add (no FMA), with the operands in the order Go's MULSS and
// ADDSS take them, so even a NaN result carries the same payload. Go runs
// the tail. The Go loop stays as the reference the tests hold the kernel to,
// and as the only path elsewhere.

import "repro/internal/cpu"

// useAVX2 is set once at start-up from the module's one CPU check. Tests
// clear it to run the Go loop.
var useAVX2 = cpu.Kernels()

// addScaled is the fold kernel: a[i] += w·b[i], the same arithmetic as
// StateDict.AddScaled. b must be at least as long as a.
func addScaled(a, b []float32, w float32) {
	b = b[:len(a)]
	if n8 := len(a) &^ 7; useAVX2 && n8 > 0 {
		addScaledAVX2(a[:n8], b[:n8], w)
		a, b = a[n8:], b[n8:]
	}
	for i := range a {
		a[i] += w * b[i]
	}
}
