package sz2

// fitAVX2 adds block's values and index·value products into four lanes
// each, lane j taking the elements i ≡ j (mod 4): s[0] = y, s[1] = x·y.
// len(block) is a positive multiple of 4.
//
//go:noescape
func fitAVX2(block []float32, s *[2][4]float64)

// scoreAVX2 adds the Lorenzo errors |v[i] − v[i−1]| (v[−1] = prev), the line's
// errors |v[i] − (a·i + b)| and the zero line's errors |v[i]| of the quads at
// 0, 4·stride, 8·stride, … into four lanes each the same way: s[0] = l,
// s[1] = r, s[2] = z. len(block) is a positive multiple of 4.
//
//go:noescape
func scoreAVX2(block []float32, prev, a, b float64, stride int, s *[3][4]float64)
