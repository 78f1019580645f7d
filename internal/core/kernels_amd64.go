package core

// residualAVX2 is residualScan's loop over res, data and ref, of equal
// length, a positive multiple of 8: the extents' bounds start at ±Inf, so
// they are exact only while no NaN has been seen.
//
//go:noescape
func residualAVX2(res, data, ref []float32) (loD, hiD, loR, hiR float32, absD, absR uint32)

// addAVX2 is addInto's loop over data and ref, of equal length, a positive
// multiple of 8.
//
//go:noescape
func addAVX2(data, ref []float32)
