package ebcl

// The block kernels. When lanes.On, SZ2's zero-line blocks quantize four
// float64 lanes at a time (float32 loads widen in the register) and
// dequantize eight at a time from the blob's reconstruction table, by the
// rules of package lanes' kernels; float32 rounding uses the default MXCSR
// mode as Go's conversions do, and Go runs tails and every escape. Fitted-line
// blocks, and zero-line blocks without a table, run the Go loops.

// quantizeZeroLineAVX2 is QuantizeLinear's loop over a zero-line block
// (a = b = +0) whose length is a positive multiple of 4: codes written,
// EscapeCode for every escaping lane, last the final lane's reconstruction
// (meaningless if that lane escaped), worst the largest |v − rec32| of the
// lanes that did not escape, escaped whether any lane did, lo and hi the
// least and greatest code of the lanes that did not (both 0 when every lane
// escaped).
//
//go:noescape
func quantizeZeroLineAVX2(codes []uint16, block []float32, invWidth, binWidth, ebAbs float64) (last, worst float64, escaped bool, lo, hi uint32)

// dequantizeTableAVX2 is DequantizeLinear's loop over a zero-line block whose
// length is a positive multiple of 8: out[i] is table[codes[i] − lo], read
// eight lanes a step by a gather with the index clamped into table, and +0
// for an EscapeCode. It reports whether any code was EscapeCode and returns
// the largest magnitude bits of the values it wrote. table must not be empty.
//
//go:noescape
func dequantizeTableAVX2(out []float32, codes []uint16, table []float32, lo uint32) (escaped bool, absBits uint32)
