package lanes

// detect reports whether the kernels may run: CPUID leaf 1 reports AVX and
// OSXSAVE, XCR0 has the XMM and YMM state bits set (the OS saves the upper
// halves across context switches), and CPUID leaf 7 reports BMI1 (EBX bit
// 3), AVX2 (bit 5) and BMI2 (bit 8).
func detect() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const bmi1, avx2, bmi2 = 1 << 3, 1 << 5, 1 << 8
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(bmi1|avx2|bmi2) == bmi1|avx2|bmi2
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The kernels take slices of equal length, a positive multiple of 8. The
// range lanes start at ±Inf, so a kernel's bounds are exact only while no
// NaN has been seen.

// scanAVX2 is Scan's loop over data.
//
//go:noescape
func scanAVX2(data []float32) (lo, hi float32, absBits uint32)

// residualAVX2 is Residual's loop over res, data and ref.
//
//go:noescape
func residualAVX2(res, data, ref []float32) (loD, hiD, loR, hiR float32, absD, absR uint32)

// addAVX2 is Add's loop over data and ref; absBits is the sums' largest
// magnitude bits.
//
//go:noescape
func addAVX2(data, ref []float32) (absBits uint32)

// addScaledAVX2 is AddScaled's loop over a and b.
//
//go:noescape
func addScaledAVX2(a, b []float32, w float32)

// addScaledOffsetAVX2 is AddScaledOffset's loop over a and ref.
//
//go:noescape
func addScaledOffsetAVX2(a, ref []float32, v, w float32)

// scaleAVX2 is Scale's loop over dst and src.
//
//go:noescape
func scaleAVX2(dst, src []float32, w float32)

// offsetAVX2 is Offset's loop over dst and ref.
//
//go:noescape
func offsetAVX2(dst, ref []float32, v float32)

// withinAVX2 is Within's loop over data and ref.
//
//go:noescape
func withinAVX2(data, ref []float32, mid float32, eb float64) bool
