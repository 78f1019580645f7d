// Package cpu holds the one CPU check behind the module's amd64 assembly
// kernels (sz2's AVX2 block loops in ebcl and sz2, the Huffman BMI2 loops in
// huffman). It is a leaf package so that every package with kernels can
// import it: huffman cannot ask ebcl, which imports huffman.
package cpu

// kernels is read once at start-up.
var kernels = detect()

// Kernels reports whether this CPU runs the module's amd64 kernels: AVX2
// with the OS saving YMM state, and BMI1 and BMI2. It is false on other
// architectures. Each package with kernels seeds its own switch from it, so
// a test can turn one package's kernels off without touching another's.
func Kernels() bool { return kernels }
