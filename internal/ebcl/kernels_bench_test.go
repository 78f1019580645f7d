package ebcl

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/lanes"
)

// BenchmarkLinearKernels times QuantizeLinear and DequantizeLinear over
// 512 Ki weight-like elements (Laplace, scale 0.03) in 256-element blocks,
// on the zero line (a = b = 0, every block of round_lan's tensors; the
// kernels) and on a fitted line (the Go loops), at the bin widths of REL 1e-2
// and 1e-4 of a ±1 range.
func BenchmarkLinearKernels(b *testing.B) {
	const n, block = 512 << 10, 256
	rng := rand.New(rand.NewPCG(55, 55))
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(0.03 * (rng.ExpFloat64() - rng.ExpFloat64()))
	}
	f := make([]float64, block)
	codes := make([]uint16, n)
	out := make([]float32, n)
	for _, eb := range []float64{2e-2, 2e-4} {
		for _, line := range []struct {
			name string
			a, b float64
		}{{"zero", 0, 0}, {"line", 1e-6, 1e-3}} {
			q := NewQuantizer(eb)
			var lits []float32
			quantize := func() {
				lits = lits[:0]
				t := Tally{Span: NoCodes}
				for lo := 0; lo < n; lo += block {
					if line.name != "zero" || !lanes.On() { // sz2 widens the blocks the Go loop reads
						for i, v := range data[lo : lo+block] {
							f[i] = float64(v)
						}
					}
					lits, _, t = q.QuantizeLinear(codes[lo:lo+block], data[lo:lo+block], f, line.a, line.b, lits, t)
				}
			}
			b.Run(fmt.Sprintf("quantize/%s/eb=%g", line.name, eb), func(b *testing.B) {
				b.SetBytes(4 * n)
				for range b.N {
					quantize()
				}
			})
			b.Run(fmt.Sprintf("dequantize/%s/eb=%g", line.name, eb), func(b *testing.B) {
				quantize()
				b.SetBytes(4 * n)
				open, closeSections := benchSections(lits, codes)
				b.ResetTimer()
				for range b.N {
					s := open()
					for lo := 0; lo < n; lo += block {
						q.DequantizeLinear(out[lo:lo+block], codes[lo:lo+block], line.a, line.b, s)
					}
					closeSections(s)
				}
			})
		}
	}
}

// benchSections opens a Sections whose literal cursor reads lits over a
// blob of codes whose Huffman code holds the codes' span, and closes it,
// returning its table but not codes.
func benchSections(lits []float32, codes []uint16) (func() *Sections, func(*Sections)) {
	span := NoCodes
	for _, c := range codes {
		if c != EscapeCode {
			span = span.With(c)
		}
	}
	open := func() *Sections {
		s := literalSections(lits)
		s.Codes, s.Span = codes, span
		return s
	}
	return open, func(s *Sections) {
		if s.table != nil {
			tablePool.Put(s.table)
		}
	}
}
