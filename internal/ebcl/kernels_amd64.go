package ebcl

// minMaxAVX2 is MinMax's scan over data, whose length is a positive multiple
// of 4. lo and hi start at ±Inf, so they are exact only for NaN-free data.
//
//go:noescape
func minMaxAVX2(data []float32) (lo, hi float32, maxAbsBits uint32)

// quantizeLinearAVX2 is QuantizeLinear's loop over a block whose length is a
// positive multiple of 4: codes written, EscapeCode for every escaping lane,
// last the final lane's reconstruction (meaningless if that lane escaped),
// escaped whether any lane did.
//
//go:noescape
func quantizeLinearAVX2(codes []uint16, block []float32, a, b, invWidth, binWidth, ebAbs float64) (last float64, escaped bool)

// dequantizeLinearAVX2 is DequantizeLinear's loop over codes, whose length is
// a positive multiple of 4. It writes a value for every element, escape
// codes included, and reports whether any code was EscapeCode.
//
//go:noescape
func dequantizeLinearAVX2(out []float32, codes []uint16, a, b, binWidth float64) (escaped bool)
