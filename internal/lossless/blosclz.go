package lossless

import (
	"encoding/binary"

	"repro/internal/sched"
)

// BloscLZ is the speed-tuned codec modelled on blosc-lz: a byte-shuffle
// filter (element size 4, matching the float32 payloads FedSZ feeds it)
// followed by a fast greedy LZ77 with short hash chains and incompressible-
// region skipping. It is the FedSZ default for the lossless partition.
type BloscLZ struct {
	elemSize int
	cfg      matcherConfig
}

// NewBloscLZ returns the codec with blosc-like defaults: 4-byte shuffle and
// a shallow match search tuned for throughput.
func NewBloscLZ() *BloscLZ {
	return &BloscLZ{
		elemSize: 4,
		cfg:      matcherConfig{maxChain: 1},
	}
}

// Name implements Codec.
func (c *BloscLZ) Name() string { return "blosclz" }

// Frame layout:
//
//	u32 rawLen | u8 shuffled | interleaved LZ stream
//
// Interleaved stream per sequence: uvarint litLen, literal bytes,
// uvarint(matchLen) (0 = tail), u16 offset-1 when matchLen > 0.
// matchLen stores matchLen-lzMinMatch+1 so 0 is reserved for the tail.

// Compress implements Codec.
func (c *BloscLZ) Compress(src []byte) ([]byte, error) {
	out := sched.GetBytes(len(src)/2 + 16)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(src)))
	seqs, lits, shuffled := parseShuffled(src, c.elemSize, c.cfg)
	out = append(out, shuffled)
	litPos := 0
	for _, s := range seqs {
		out = appendMatch(appendBlob(out, lits[litPos:litPos+s.litLen]), s)
		litPos += s.litLen
	}
	putSeqs(seqs)
	sched.PutBytes(lits)
	return out, nil
}

// Decompress implements Codec.
func (c *BloscLZ) Decompress(src []byte) ([]byte, error) {
	if len(src) < 5 {
		return nil, ErrCorrupt
	}
	rawLen := int(binary.LittleEndian.Uint32(src))
	shuffled := src[4]
	r := frameReader{src: src, pos: 5}
	out := sched.GetBytes(initialCap(rawLen, len(src)))
	for len(out) < rawLen {
		lit, err := r.blob()
		if err != nil || len(lit) > rawLen-len(out) {
			return nil, ErrCorrupt
		}
		out = append(out, lit...)
		mLen, off, err := r.match()
		if err != nil {
			return nil, err
		}
		if mLen == 0 {
			break
		}
		if off > len(out) || mLen > rawLen-len(out) {
			return nil, ErrCorrupt
		}
		out = appendMatchCopy(out, off, mLen)
	}
	if len(out) != rawLen {
		return nil, ErrCorrupt
	}
	return unshuffled(out, shuffled, c.elemSize), nil
}
