//go:build race

package szx_test

// raceEnabled reports that this test binary runs under the race detector,
// which instruments Go code but not assembly: a speed ratio between a codec
// on AVX2 kernels and one on Go loops means nothing there.
const raceEnabled = true
