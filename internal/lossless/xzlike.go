package lossless

import (
	"encoding/binary"

	"repro/internal/sched"
)

// XZLike is the highest-effort codec in the suite, modelled on XZ/LZMA's
// position in the paper's Table II: by far the slowest and (marginally) the
// best ratio. It combines a byte-shuffle filter, exhaustive lazy LZ77
// matching, and Huffman coding of both the literal stream and the control
// stream (sequence lengths and offsets serialized to bytes first).
type XZLike struct {
	elemSize int
	cfg      matcherConfig
}

// NewXZLike returns the codec at full effort.
func NewXZLike() *XZLike {
	return &XZLike{
		elemSize: 4,
		cfg:      matcherConfig{maxChain: 512, lazy: true},
	}
}

// Name implements Codec.
func (c *XZLike) Name() string { return "xzlike" }

// Frame layout:
//
//	u32 rawLen | u8 shuffled | u8 litMode | u8 ctlMode |
//	uvarint litBlobLen | litBlob | uvarint ctlBlobLen | ctlBlob
//
// The control blob is the varint-packed sequence stream (as in zstdlike),
// itself entropy-coded when that wins.

// Compress implements Codec.
func (c *XZLike) Compress(src []byte) ([]byte, error) {
	seqs, lits, shuffled := parseShuffled(src, c.elemSize, c.cfg)
	defer sched.PutBytes(lits) // a raw blob below is a view of lits or ctl

	ctl := appendSeqs(sched.GetBytes(len(seqs)*5+16), seqs)
	putSeqs(seqs)
	defer sched.PutBytes(ctl)

	litBlob, litMode, err := encodeLiterals(lits)
	if err != nil {
		return nil, err
	}
	defer releaseLiterals(litBlob, litMode)
	ctlBlob, ctlMode, err := encodeLiterals(ctl)
	if err != nil {
		return nil, err
	}
	defer releaseLiterals(ctlBlob, ctlMode)

	out := sched.GetBytes(len(litBlob) + len(ctlBlob) + 16)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(src)))
	out = append(out, shuffled, litMode, ctlMode)
	return appendBlob(appendBlob(out, litBlob), ctlBlob), nil
}

// Decompress implements Codec.
func (c *XZLike) Decompress(src []byte) ([]byte, error) {
	if len(src) < 7 {
		return nil, ErrCorrupt
	}
	rawLen := int(binary.LittleEndian.Uint32(src))
	shuffled, litMode, ctlMode := src[4], src[5], src[6]
	r := frameReader{src: src, pos: 7}
	lits, err := r.literals(litMode)
	if err != nil {
		return nil, err
	}
	defer releaseLiterals(lits, litMode)
	ctl, err := r.literals(ctlMode)
	if err != nil {
		return nil, err
	}
	defer releaseLiterals(ctl, ctlMode)
	seqs, err := (&frameReader{src: ctl}).readSeqs()
	if err != nil {
		return nil, err
	}
	defer putSeqs(seqs)
	out, err := lzReconstruct(seqs, lits, rawLen)
	if err != nil {
		return nil, err
	}
	return unshuffled(out, shuffled, c.elemSize), nil
}
