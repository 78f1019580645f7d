//go:build !amd64

package lanes

// Without amd64 assembly On is false and the Go loops are the only path.

func detect() bool { return false }

func scanAVX2([]float32) (float32, float32, uint32) { panic("lanes: no AVX2 kernels") }

func residualAVX2(_, _, _ []float32) (float32, float32, float32, float32, uint32, uint32) {
	panic("lanes: no AVX2 kernels")
}

func addScaledAVX2([]float32, []float32, float32) { panic("lanes: no AVX2 kernels") }

func addScaledOffsetAVX2([]float32, []float32, float32, float32) { panic("lanes: no AVX2 kernels") }

func scaleAVX2([]float32, []float32, float32) { panic("lanes: no AVX2 kernels") }

func offsetAVX2([]float32, []float32, float32) { panic("lanes: no AVX2 kernels") }
