//go:build !amd64

package sz2

// Without amd64 assembly lanes.On is false and the Go loops are the only
// path.

func fitAVX2([]float32, *[2][4]float64) { panic("sz2: no AVX2 kernels") }

func scoreAVX2([]float32, float64, float64, float64, int, *[3][4]float64) {
	panic("sz2: no AVX2 kernels")
}
