package core

// onBothPaths calls fn on the AVX2 delta kernels and then, with them switched
// off, on the Go loops, so a test holds the two to each other on the same
// input. path names the one fn runs on; without AVX2 both calls take the Go
// loops.
func onBothPaths(fn func(path string)) {
	if useAVX2 {
		fn("AVX2")
	}
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	fn("Go")
}
