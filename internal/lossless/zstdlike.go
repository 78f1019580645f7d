package lossless

import (
	"encoding/binary"
	"math"

	"repro/internal/huffman"
	"repro/internal/sched"
)

// ZstdLike is a Zstandard-inspired codec: the same LZ77 factorization with a
// deeper match search than blosclz, plus Huffman entropy coding of the
// literal stream. Control data (sequence counts, lengths, offsets) is
// varint-packed. Slower than blosclz, better ratio on entropy-rich data.
type ZstdLike struct {
	cfg matcherConfig
}

// NewZstdLike returns the codec with mid-effort matching.
func NewZstdLike() *ZstdLike {
	return &ZstdLike{cfg: matcherConfig{maxChain: 32, lazy: false}}
}

// Name implements Codec.
func (c *ZstdLike) Name() string { return "zstdlike" }

// Frame layout:
//
//	u32 rawLen | u8 litMode | uvarint litBlobLen | litBlob |
//	uvarint nSeqs | per-seq: uvarint litLen, uvarint matchCode, u16 offset-1
//
// litMode 0 = raw literals, 1 = Huffman (see encodeLiterals for the rule).

// Compress implements Codec.
func (c *ZstdLike) Compress(src []byte) ([]byte, error) {
	seqs, lits := lzParse(src, c.cfg)
	defer sched.PutBytes(lits) // a raw litBlob is a view of lits
	defer putSeqs(seqs)
	litBlob, litMode, err := encodeLiterals(lits)
	if err != nil {
		return nil, err
	}
	out := sched.GetBytes(len(litBlob) + len(seqs)*4 + 16)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(src)))
	out = append(out, litMode)
	out = appendUvarint(out, uint64(len(litBlob)))
	out = append(out, litBlob...)
	releaseLiterals(litBlob, litMode)
	out = appendUvarint(out, uint64(len(seqs)))
	for _, s := range seqs {
		out = appendUvarint(out, uint64(s.litLen))
		if s.matchLen == 0 {
			out = appendUvarint(out, 0)
			continue
		}
		out = appendUvarint(out, uint64(s.matchLen-lzMinMatch+1))
		out = binary.LittleEndian.AppendUint16(out, uint16(s.offset-1))
	}
	return out, nil
}

// Decompress implements Codec.
func (c *ZstdLike) Decompress(src []byte) ([]byte, error) {
	if len(src) < 5 {
		return nil, ErrCorrupt
	}
	rawLen := int(binary.LittleEndian.Uint32(src))
	litMode := src[4]
	pos := 5
	blobLen64, pos, err := readUvarint(src, pos)
	if err != nil {
		return nil, err
	}
	blobLen := int(blobLen64)
	if pos+blobLen > len(src) {
		return nil, ErrCorrupt
	}
	lits, err := decodeLiterals(src[pos:pos+blobLen], litMode)
	if err != nil {
		return nil, err
	}
	pos += blobLen
	nSeqs64, pos, err := readUvarint(src, pos)
	if err != nil {
		releaseLiterals(lits, litMode)
		return nil, err
	}
	// The capacity is a hint bounded by what the stream could really carry
	// (each sequence costs >= 2 bytes), so a hostile count cannot force a
	// giant allocation; append grows if the data is there.
	seqs := getSeqs(min(clampInt(nSeqs64), (len(src)-pos)/2+1))
	defer func() { putSeqs(seqs) }()
	for i := uint64(0); i < nSeqs64; i++ {
		var s sequence
		var v uint64
		v, pos, err = readUvarint(src, pos)
		if err != nil {
			releaseLiterals(lits, litMode)
			return nil, err
		}
		s.litLen = int(v)
		v, pos, err = readUvarint(src, pos)
		if err != nil {
			releaseLiterals(lits, litMode)
			return nil, err
		}
		if v > 0 {
			s.matchLen = int(v) + lzMinMatch - 1
			if pos+2 > len(src) {
				releaseLiterals(lits, litMode)
				return nil, ErrCorrupt
			}
			s.offset = int(binary.LittleEndian.Uint16(src[pos:])) + 1
			pos += 2
		}
		seqs = append(seqs, s)
	}
	out, err := lzReconstruct(seqs, lits, rawLen)
	releaseLiterals(lits, litMode)
	return out, err
}

// encodeLiterals Huffman-codes lits when that can pay; otherwise it stores
// them raw, returning lits itself (mode 0 is a view, as in decodeLiterals).
// The caller recycles the blob with releaseLiterals once it is copied into
// the frame, and lits separately.
func encodeLiterals(lits []byte) (blob []byte, mode byte, err error) {
	if !huffmanCanPay(lits) {
		return lits, 0, nil
	}
	syms := sched.GetUint16s(len(lits))[:len(lits)]
	for i, b := range lits {
		syms[i] = uint16(b)
	}
	enc, err := huffman.EncodeAllU16(syms, 256)
	sched.PutUint16s(syms)
	if err != nil {
		return nil, 0, err
	}
	if len(enc) < len(lits) {
		return enc, 1, nil
	}
	sched.PutBytes(enc)
	return lits, 0, nil
}

// huffmanCanPay is zstd's minimum-gain rule applied before any coding work:
// an order-0 entropy estimate from one byte histogram, plus the code-length
// table (24 bits, then about one 17-bit run per distinct byte), must undercut
// the raw size by more than len/64 + 2 bytes, or the literals are not worth
// a Huffman pass on either end. Already entropy-coded input (the SZ
// quantization-code bitstream) fails it at any size, and a small tensor's
// payload fails it on the table alone; skewed bytes pass.
func huffmanCanPay(lits []byte) bool {
	if len(lits) < 64 {
		return false
	}
	var hist [256]int
	for _, b := range lits {
		hist[b]++
	}
	n := float64(len(lits))
	bits := 24.0
	for _, c := range hist {
		if c > 0 {
			bits += 17 + float64(c)*math.Log2(n/float64(c))
		}
	}
	return bits/8 < n-float64(len(lits)/64+2)
}

// decodeLiterals reverses encodeLiterals. Mode 0 returns a view into blob;
// mode 1 returns a pooled buffer — releaseLiterals recycles whichever the
// mode produced once the bytes are dead.
func decodeLiterals(blob []byte, mode byte) ([]byte, error) {
	switch mode {
	case 0:
		return blob, nil
	case 1:
		syms, err := huffman.DecodeAllU16(blob, 256)
		if err != nil {
			return nil, err
		}
		out := sched.GetBytes(len(syms))[:len(syms)]
		for i, s := range syms {
			out[i] = byte(s)
		}
		sched.PutUint16s(syms)
		return out, nil
	default:
		return nil, ErrCorrupt
	}
}

// releaseLiterals recycles an encodeLiterals or decodeLiterals result (no-op
// for mode-0 views).
func releaseLiterals(lits []byte, mode byte) {
	if mode == 1 {
		sched.PutBytes(lits)
	}
}

// clampInt converts an untrusted uint64 to a non-negative int without
// overflow surprises (huge values saturate).
func clampInt(v uint64) int {
	const maxInt = int(^uint(0) >> 1)
	if v > uint64(maxInt) {
		return maxInt
	}
	return int(v)
}
