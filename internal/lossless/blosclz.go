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
	shuffled := byte(0)
	work := src
	if c.elemSize > 1 && len(src) >= 4*c.elemSize {
		shuffled = 1
		work = shuffleBytes(src, c.elemSize)
	}
	out = append(out, shuffled)
	seqs, lits := lzParse(work, c.cfg)
	if shuffled == 1 {
		sched.PutBytes(work) // lzParse copied what it needs into lits
	}
	litPos := 0
	for _, s := range seqs {
		out = appendUvarint(out, uint64(s.litLen))
		out = append(out, lits[litPos:litPos+s.litLen]...)
		litPos += s.litLen
		if s.matchLen == 0 {
			out = appendUvarint(out, 0)
			continue
		}
		out = appendUvarint(out, uint64(s.matchLen-lzMinMatch+1))
		out = binary.LittleEndian.AppendUint16(out, uint16(s.offset-1))
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
	pos := 5
	out := sched.GetBytes(initialCap(rawLen, len(src)))
	for len(out) < rawLen {
		litLen64, p, err := readUvarint(src, pos)
		if err != nil {
			return nil, err
		}
		pos = p
		litLen := int(litLen64)
		if pos+litLen > len(src) || len(out)+litLen > rawLen {
			return nil, ErrCorrupt
		}
		out = append(out, src[pos:pos+litLen]...)
		pos += litLen
		mCode, p, err := readUvarint(src, pos)
		if err != nil {
			return nil, err
		}
		pos = p
		if mCode == 0 {
			break
		}
		mLen := int(mCode) + lzMinMatch - 1
		if pos+2 > len(src) {
			return nil, ErrCorrupt
		}
		off := int(binary.LittleEndian.Uint16(src[pos:])) + 1
		pos += 2
		if off > len(out) || len(out)+mLen > rawLen {
			return nil, ErrCorrupt
		}
		start := len(out) - off
		for k := 0; k < mLen; k++ {
			out = append(out, out[start+k])
		}
	}
	if len(out) != rawLen {
		return nil, ErrCorrupt
	}
	if shuffled == 1 {
		un := unshuffleBytes(out, c.elemSize)
		sched.PutBytes(out)
		out = un
	}
	return out, nil
}
