package huffman

// appendCodesBMI2 is appendCodes' pair loop over the pairs of syms, writing
// into buf from pos behind the nacc pending bits of acc, as long as the next
// 8-byte store fits in buf. It returns the symbols it coded (even), the new
// position and the pending bits. Every symbol must be below len(enc).
//
//go:noescape
func appendCodesBMI2(buf []byte, pos int, enc []uint32, syms []uint16, acc uint64, nacc uint) (done, end int, accOut uint64, naccOut uint)

// decode4BMI2 is decode4's wide loop over s, through the decode table tab of
// index width tb, rounds symbols a stream between refills; it sets each
// stream's used and n. Every stream must hold at least 8 bytes.
//
//go:noescape
func decode4BMI2(s *[4]wideStream, tab []uint32, tb uint, rounds int)

// decode4PairsBMI2 is decode4's wide loop with the pair table: decode4BMI2
// with the double-symbol table pairs, rounds probes a stream between refills.
//
//go:noescape
func decode4PairsBMI2(s *[4]wideStream, tab []uint32, pairs []uint64, tb uint, rounds int)
