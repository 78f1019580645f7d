package lossless

import "repro/internal/sched"

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
	for b := 0; b < elemSize; b++ {
		base := b * n
		for i := 0; i < n; i++ {
			out[i*elemSize+b] = src[base+i]
		}
	}
	copy(out[n*elemSize:], src[n*elemSize:])
	return out
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
