//go:build !amd64

package huffman

// Without amd64 assembly the Go loops are the only path.

func appendCodesBMI2([]byte, int, []uint32, []uint16, uint64, uint) (int, int, uint64, uint) {
	panic("huffman: no BMI2 kernels")
}

func decode4BMI2(*[4]wideStream, []uint32, uint, int) { panic("huffman: no BMI2 kernels") }

func decode4PairsBMI2(*[4]wideStream, []uint32, []uint64, uint, int) {
	panic("huffman: no BMI2 kernels")
}
