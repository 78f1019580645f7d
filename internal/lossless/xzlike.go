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
	work := src
	shuffled := byte(0)
	if c.elemSize > 1 && len(src) >= 4*c.elemSize {
		shuffled = 1
		work = shuffleBytes(src, c.elemSize)
	}
	seqs, lits := lzParse(work, c.cfg)
	defer sched.PutBytes(lits) // a raw blob below is a view of lits or ctl
	if shuffled == 1 {
		sched.PutBytes(work) // lzParse copied what it needs into lits
	}

	ctl := sched.GetBytes(len(seqs)*5 + 16)
	ctl = appendUvarint(ctl, uint64(len(seqs)))
	for _, s := range seqs {
		ctl = appendUvarint(ctl, uint64(s.litLen))
		if s.matchLen == 0 {
			ctl = appendUvarint(ctl, 0)
			continue
		}
		ctl = appendUvarint(ctl, uint64(s.matchLen-lzMinMatch+1))
		ctl = binary.LittleEndian.AppendUint16(ctl, uint16(s.offset-1))
	}
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
	out = appendUvarint(out, uint64(len(litBlob)))
	out = append(out, litBlob...)
	out = appendUvarint(out, uint64(len(ctlBlob)))
	out = append(out, ctlBlob...)
	return out, nil
}

// Decompress implements Codec.
func (c *XZLike) Decompress(src []byte) ([]byte, error) {
	if len(src) < 7 {
		return nil, ErrCorrupt
	}
	rawLen := int(binary.LittleEndian.Uint32(src))
	shuffled, litMode, ctlMode := src[4], src[5], src[6]
	pos := 7
	litLen64, pos, err := readUvarint(src, pos)
	if err != nil {
		return nil, err
	}
	if pos+int(litLen64) > len(src) {
		return nil, ErrCorrupt
	}
	lits, err := decodeLiterals(src[pos:pos+int(litLen64)], litMode)
	if err != nil {
		return nil, err
	}
	pos += int(litLen64)
	ctlLen64, pos, err := readUvarint(src, pos)
	if err != nil {
		return nil, err
	}
	if pos+int(ctlLen64) > len(src) {
		return nil, ErrCorrupt
	}
	ctl, err := decodeLiterals(src[pos:pos+int(ctlLen64)], ctlMode)
	if err != nil {
		releaseLiterals(lits, litMode)
		return nil, err
	}
	fail := func(err error) ([]byte, error) {
		releaseLiterals(lits, litMode)
		releaseLiterals(ctl, ctlMode)
		return nil, err
	}

	cpos := 0
	nSeqs64, cpos, err := readUvarint(ctl, cpos)
	if err != nil {
		return fail(err)
	}
	seqs := getSeqs(min(clampInt(nSeqs64), (len(ctl)-cpos)/2+1))
	defer func() { putSeqs(seqs) }()
	for i := uint64(0); i < nSeqs64; i++ {
		var s sequence
		var v uint64
		v, cpos, err = readUvarint(ctl, cpos)
		if err != nil {
			return fail(err)
		}
		s.litLen = int(v)
		v, cpos, err = readUvarint(ctl, cpos)
		if err != nil {
			return fail(err)
		}
		if v > 0 {
			s.matchLen = int(v) + lzMinMatch - 1
			if cpos+2 > len(ctl) {
				return fail(ErrCorrupt)
			}
			s.offset = int(binary.LittleEndian.Uint16(ctl[cpos:])) + 1
			cpos += 2
		}
		seqs = append(seqs, s)
	}
	out, err := lzReconstruct(seqs, lits, rawLen)
	releaseLiterals(lits, litMode)
	releaseLiterals(ctl, ctlMode)
	if err != nil {
		return nil, err
	}
	if shuffled == 1 {
		un := unshuffleBytes(out, c.elemSize)
		sched.PutBytes(out)
		out = un
	}
	return out, nil
}
