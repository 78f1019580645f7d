//go:build !amd64

package ebcl

// Without amd64 assembly the Go loops are the only path.

func quantizeLinearAVX2([]uint16, []float32, float64, float64, float64, float64, float64) (float64, float64, bool, uint32, uint32) {
	panic("ebcl: no AVX2 kernels")
}

func dequantizeLinearAVX2([]float32, []uint16, float64, float64, float64) (bool, uint32) {
	panic("ebcl: no AVX2 kernels")
}

func dequantizeTableAVX2([]float32, []uint16, []float32, uint32) (bool, uint32) {
	panic("ebcl: no AVX2 kernels")
}
