package sz2

// fitScoreAVX2 adds block's values, index·value products and Lorenzo errors
// |v[i] − v[i−1]| (v[−1] = prev) into four lanes each, lane j taking the
// elements i ≡ j (mod 4): s[0] = y, s[1] = x·y, s[2] = l. len(block) is a
// positive multiple of 4.
//
//go:noescape
func fitScoreAVX2(block []float32, prev float64, s *[3][4]float64)

// regScoreAVX2 adds the regression errors |v[i] − (a·i + b)| and the zero
// line's errors |v[i]| into four lanes each the same way: r[0] = r, r[1] = z.
// len(block) is a positive multiple of 4.
//
//go:noescape
func regScoreAVX2(block []float32, a, b float64, r *[2][4]float64)
