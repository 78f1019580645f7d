//go:build !amd64

package core

// Without amd64 assembly the Go loops are the only path.

func residualAVX2(_, _, _ []float32) (float32, float32, float32, float32, uint32, uint32) {
	panic("core: no AVX2 kernels")
}

func addAVX2([]float32, []float32) { panic("core: no AVX2 kernels") }
