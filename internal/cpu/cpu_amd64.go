package cpu

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
