package huffman

// The entropy kernels. When lanes.On (amd64 with BMI2) three loops run
// in Go assembly (kernels_amd64.s) and write the same bytes and symbols as
// their Go loops:
//
//   - appendCodesBMI2 is appendCodes' pair loop over uint16 symbols, with the
//     accumulator in a register and one BSWAPQ and one 8-byte store a pair;
//   - decode4BMI2 and decode4PairsBMI2 are decode4's wide loop without and
//     with the double-symbol table, with all four streams' bit containers
//     and positions in registers, refilled with one 8-byte big-endian load
//     each.
//
// A decode kernel stops on a zero table entry, on a stream with fewer than 8
// bytes left to load, or when an output chunk has no room for another round,
// and hands each stream's exact position back; decode4's Go loop carries on
// from there, and decodeSeq, every stream's one tail, ends it. The Go loops
// stay as the reference the tests hold the kernels to, and as the only path
// elsewhere.

import (
	"repro/internal/bitio"
	"repro/internal/lanes"
)

// appendCodesU16 is appendCodes for uint16 symbols: the kernel writes the
// code pairs and appendCodes the rest. The kernel stops short of a store
// past the end of out's capacity; out then grows (growCodes) and the kernel
// goes on.
func appendCodesU16(out []byte, enc []uint32, syms []uint16, acc uint64, nacc uint) []byte {
	for lanes.On() && len(syms) >= 2 {
		done, pos, a, n := appendCodesBMI2(out[:cap(out)], len(out), enc, syms, acc, nacc)
		out, syms, acc, nacc = out[:pos], syms[done:], a, n
		if len(syms) >= 2 {
			out = growCodes(out)
		}
	}
	return appendCodes(out, enc, syms, acc, nacc)
}

// wideStream is one sub-stream as a wide decode kernel sees it: the bytes it
// reads and the chunk it fills, and on return the bits of src consumed and
// the symbols written to out.
type wideStream struct {
	src  []byte
	out  []uint16
	used uint
	n    int
}

// decode4Kernel runs a wide decode kernel over the four sub-streams —
// decode4PairsBMI2 when pairs is not nil — and points rs and the returned
// positions where it stopped: reader k at bit B of srcs[k] is
// Reset(srcs[k][B/8:]) plus ReadBits(B%8). A stream shorter than 8 bytes
// keeps the kernel from running, since it starts with an 8-byte load of each.
func (c *Codec) decode4Kernel(srcs *[4][]byte, outs *[4][]uint16, pairs []uint64, rs [4]*bitio.Reader) (ps [4]int) {
	var ws [4]wideStream
	for k := range ws {
		if len(srcs[k]) < 8 {
			return ps
		}
		ws[k] = wideStream{src: srcs[k], out: outs[k]}
	}
	// The symbols (or, with pairs, the probes) a kernel takes from each
	// stream between refills: a refill leaves at least 56 bits in a
	// container and each step takes at most maxLen, so every step starts with
	// a whole code's worth of bits, as the Go loop's Buffered() >= ml test
	// requires.
	rounds := 56 / int(c.maxLen)
	if pairs != nil {
		decode4PairsBMI2(&ws, c.table, pairs, c.tableBits, rounds)
	} else {
		decode4BMI2(&ws, c.table, c.tableBits, rounds)
	}
	for k, w := range ws {
		rs[k].Reset(w.src[w.used/8:])
		rs[k].ReadBits(w.used % 8)
		ps[k] = w.n
	}
	return ps
}
