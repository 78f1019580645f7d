package sz2

import "math"

// scoreBlockLanes is scoreBlock on AVX2 lanes, reading the float32 block
// (at least 4 elements). One kernel pass fills the lanes of fitLine's sums
// y, x·y and the Lorenzo score l, a second the regression score r once the
// line is known and the zero line's score z. A lane is one of the Go loops'
// partial sums y0..y3, xy0..xy3, l0..l3, r0..r3, z0..z3, and Go combines them
// and runs the tail in the Go loops' order, so every result is scoreBlock's
// bit for bit.
func scoreBlockLanes(block []float32, prev float64) (af, bf, lorenzoErr, regErr, zeroErr float64) {
	n4 := len(block) &^ 3
	var s [3][4]float64 // lanes of y, x·y, l
	fitScoreAVX2(block[:n4], prev, &s)
	sy := s[0][0] + s[0][1] + s[0][2] + s[0][3]
	sxy := s[1][0] + s[1][1] + s[1][2] + s[1][3]
	for i := n4; i < len(block); i++ {
		y := float64(block[i])
		sy += y
		sxy += float64(i) * y
	}
	af, bf = solveLine(len(block), sy, sxy)
	var r [2][4]float64 // lanes of r, z
	regScoreAVX2(block[:n4], af, bf, &r)
	lorenzoErr = s[2][0] + s[2][1] + s[2][2] + s[2][3]
	regErr = r[0][0] + r[0][1] + r[0][2] + r[0][3]
	zeroErr = r[1][0] + r[1][1] + r[1][2] + r[1][3]
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
