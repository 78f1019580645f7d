package agg

// addScaledAVX2 is addScaled's loop over a and b, of equal length, a positive
// multiple of 8.
//
//go:noescape
func addScaledAVX2(a, b []float32, w float32)
