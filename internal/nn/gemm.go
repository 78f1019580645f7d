package nn

import (
	"runtime"
	"sync"
)

// Parallel single-precision GEMM kernels. These are the hot loops of the
// training substrate; they use the classic i-k-j ordering (unit-stride inner
// loop over B and C rows) and fan rows of A out to a worker pool.

// gemmParallelThreshold is the m·n·k product below which the serial kernel
// wins (goroutine fan-out costs more than it saves).
const gemmParallelThreshold = 1 << 16

var gemmWorkers = runtime.NumCPU()

// Gemm computes C = A·B for row-major matrices: A is m×k, B is k×n,
// C is m×n.
func Gemm(a []float32, m, k int, b []float32, n int, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("nn: gemm dimension mismatch")
	}
	for i := range c[:m*n] {
		c[i] = 0
	}
	if m*n*k < gemmParallelThreshold || gemmWorkers == 1 || m == 1 {
		gemmRows(a, m, k, b, n, c, 0, m)
		return
	}
	workers := gemmWorkers
	if workers > m {
		workers = m
	}
	rowsPer := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * rowsPer
		if lo >= m {
			break
		}
		hi := min(lo+rowsPer, m)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			gemmRows(a, m, k, b, n, c, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// gemmRows computes rows [lo,hi) of C += A·B.
func gemmRows(a []float32, m, k int, b []float32, n int, c []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// GemmTA computes C = Aᵀ·B where A is k×m (so Aᵀ is m×k), B is k×n,
// C is m×n. Used for weight gradients.
func GemmTA(a []float32, k, m int, b []float32, n int, c []float32, accumulate bool) {
	if !accumulate {
		for i := range c[:m*n] {
			c[i] = 0
		}
	}
	// C[i][j] += sum_p A[p][i] * B[p][j]: iterate p outer for unit stride.
	run := func(lo, hi int) {
		for p := lo; p < hi; p++ {
			ap := a[p*m : (p+1)*m]
			bp := b[p*n : (p+1)*n]
			for i, av := range ap {
				if av == 0 {
					continue
				}
				ci := c[i*n : (i+1)*n]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	}
	// Parallelizing over p races on C; keep serial (gradient GEMMs are a
	// minority of the time) unless m is large enough to split over i.
	if m*n*k < gemmParallelThreshold || gemmWorkers == 1 {
		run(0, k)
		return
	}
	// Split over output rows i instead: C[i] = sum_p A[p][i]*B[p].
	workers := min(gemmWorkers, m)
	rowsPer := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * rowsPer
		if lo >= m {
			break
		}
		hi := min(lo+rowsPer, m)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for p := 0; p < k; p++ {
				ap := a[p*m : (p+1)*m]
				bp := b[p*n : (p+1)*n]
				for i := lo; i < hi; i++ {
					av := ap[i]
					if av == 0 {
						continue
					}
					ci := c[i*n : (i+1)*n]
					for j, bv := range bp {
						ci[j] += av * bv
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
}

// GemmTB computes C = A·Bᵀ where A is m×k, B is n×k, C is m×n. Used for
// input gradients of dense layers.
func GemmTB(a []float32, m, k int, b []float32, n int, c []float32, accumulate bool) {
	if !accumulate {
		for i := range c[:m*n] {
			c[i] = 0
		}
	}
	run := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a[i*k : (i+1)*k]
			ci := c[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := b[j*k : (j+1)*k]
				var s float32
				for p, av := range ai {
					s += av * bj[p]
				}
				ci[j] += s
			}
		}
	}
	if m*n*k < gemmParallelThreshold || gemmWorkers == 1 || m == 1 {
		run(0, m)
		return
	}
	workers := min(gemmWorkers, m)
	rowsPer := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * rowsPer
		if lo >= m {
			break
		}
		hi := min(lo+rowsPer, m)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
