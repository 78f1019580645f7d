package sz2

import "math"

// scoreBlockLanes is scoreBlock on AVX2 lanes, reading the float32 block
// (at least 4 elements). One kernel pass fills the lanes of fitLine's sums
// y and x·y, a second, once the line is known, the three scores l, r and z
// over the scored quads. A lane is one of the Go loops' partial sums
// y0..y3, xy0..xy3, l[j], r[j], z[j], and Go combines them and runs the tail
// in the Go loops' order, so every result is scoreBlock's bit for bit.
func scoreBlockLanes(block []float32, prev float64, stride int) (af, bf, lorenzoErr, regErr, zeroErr float64) {
	n4 := len(block) &^ 3
	var s [2][4]float64 // lanes of y, x·y
	fitAVX2(block[:n4], &s)
	sy := s[0][0] + s[0][1] + s[0][2] + s[0][3]
	sxy := s[1][0] + s[1][1] + s[1][2] + s[1][3]
	for i := n4; i < len(block); i++ {
		y := float64(block[i])
		sy += y
		sxy += float64(i) * y
	}
	af, bf = solveLine(len(block), sy, sxy)
	var r [3][4]float64 // lanes of l, r, z
	scoreAVX2(block[:n4], prev, af, bf, stride, &r)
	lorenzoErr = r[0][0] + r[0][1] + r[0][2] + r[0][3]
	regErr = r[1][0] + r[1][1] + r[1][2] + r[1][3]
	zeroErr = r[2][0] + r[2][1] + r[2][2] + r[2][3]
	if stride != 1 {
		return af, bf, lorenzoErr, regErr, zeroErr
	}
	p := float64(block[n4-1])
	for i := n4; i < len(block); i++ {
		fv := float64(block[i])
		lorenzoErr += math.Abs(fv - p)
		p = fv
		regErr += math.Abs(fv - (af*float64(i) + bf))
		zeroErr += math.Abs(fv)
	}
	return af, bf, lorenzoErr, regErr, zeroErr
}
