package lossless

import (
	"encoding/binary"

	"repro/internal/sched"
)

// Byte-shuffle filter (the heart of blosc): rearrange an array of fixed-size
// elements so that byte 0 of every element comes first, then byte 1, etc.
// For float32 data this groups the (highly similar) sign/exponent bytes,
// turning low-entropy structure into long runs the LZ stage can exploit.
//
// Both directions draw their output buffer from the shared sched pool;
// callers that only need the result transiently recycle it with
// sched.PutBytes.

// shuffleBytes returns src rearranged with the given element size. Bytes
// beyond the last full element (the remainder) are appended unshuffled.
func shuffleBytes(src []byte, elemSize int) []byte {
	out := sched.GetBytes(len(src))[:len(src)]
	if elemSize <= 1 || len(src) < 2*elemSize {
		copy(out, src)
		return out
	}
	n := len(src) / elemSize
	for b := 0; b < elemSize; b++ {
		base := b * n
		for i := 0; i < n; i++ {
			out[base+i] = src[i*elemSize+b]
		}
	}
	copy(out[n*elemSize:], src[n*elemSize:])
	return out
}

// unshuffleBytes reverses shuffleBytes.
func unshuffleBytes(src []byte, elemSize int) []byte {
	out := sched.GetBytes(len(src))[:len(src)]
	if elemSize <= 1 || len(src) < 2*elemSize {
		copy(out, src)
		return out
	}
	n := len(src) / elemSize
	done := 0
	if elemSize == 4 {
		done = unshuffle4(out, src[:4*n], n)
	}
	for b := 0; b < elemSize; b++ {
		base := b * n
		for i := done; i < n; i++ {
			out[i*elemSize+b] = src[base+i]
		}
	}
	copy(out[n*elemSize:], src[n*elemSize:])
	return out
}

// unshuffle4 reverses the 4-byte shuffle for the first n&^7 of the n
// elements whose four byte planes src holds, eight elements a step, and
// returns how many it wrote. A step loads eight bytes of each plane into
// r0–r3 and transposes them as a 4×8 byte matrix in two swaps: bytes
// between r0 and r1 and between r2 and r3, then halfwords between r0 and r2
// and between r1 and r3, which leaves elements 0 and 4 in r0, 1 and 5 in
// r1, 2 and 6 in r2, and 3 and 7 in r3.
func unshuffle4(out, src []byte, n int) int {
	p0, p1, p2, p3 := src[:n], src[n:2*n], src[2*n:3*n], src[3*n:4*n]
	i := 0
	for ; i+8 <= n; i += 8 {
		r0 := binary.LittleEndian.Uint64(p0[i:])
		r1 := binary.LittleEndian.Uint64(p1[i:])
		r2 := binary.LittleEndian.Uint64(p2[i:])
		r3 := binary.LittleEndian.Uint64(p3[i:])
		t := (r0>>8 ^ r1) & 0x00ff00ff00ff00ff
		r0, r1 = r0^t<<8, r1^t
		t = (r2>>8 ^ r3) & 0x00ff00ff00ff00ff
		r2, r3 = r2^t<<8, r3^t
		t = (r0>>16 ^ r2) & 0x0000ffff0000ffff
		r0, r2 = r0^t<<16, r2^t
		t = (r1>>16 ^ r3) & 0x0000ffff0000ffff
		r1, r3 = r1^t<<16, r3^t
		o := out[4*i : 4*i+32]
		binary.LittleEndian.PutUint64(o[0:], r0&0xffffffff|r1<<32)
		binary.LittleEndian.PutUint64(o[8:], r2&0xffffffff|r3<<32)
		binary.LittleEndian.PutUint64(o[16:], r0>>32|r1&^0xffffffff)
		binary.LittleEndian.PutUint64(o[24:], r2>>32|r3&^0xffffffff)
	}
	return i
}

// parseShuffled is lzParse behind the filter: an input of at least four
// elements is shuffled first, and shuffled reports 1.
func parseShuffled(src []byte, elemSize int, cfg matcherConfig) (seqs []sequence, lits []byte, shuffled byte) {
	if elemSize <= 1 || len(src) < 4*elemSize {
		seqs, lits = lzParse(src, cfg)
		return seqs, lits, 0
	}
	work := shuffleBytes(src, elemSize)
	seqs, lits = lzParse(work, cfg)
	sched.PutBytes(work) // lzParse copied what it needs into lits
	return seqs, lits, 1
}

// unshuffled undoes the filter on a decoder's pooled output when the frame's
// shuffled byte says it was applied.
func unshuffled(out []byte, shuffled byte, elemSize int) []byte {
	if shuffled != 1 {
		return out
	}
	defer sched.PutBytes(out)
	return unshuffleBytes(out, elemSize)
}
