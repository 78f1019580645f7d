//go:build !amd64

package agg

// Without amd64 assembly the Go loop is the only path.

func addScaledAVX2([]float32, []float32, float32) { panic("agg: no AVX2 kernel") }
