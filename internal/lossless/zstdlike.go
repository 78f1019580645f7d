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
	out = appendBlob(out, litBlob)
	releaseLiterals(litBlob, litMode)
	return appendSeqs(out, seqs), nil
}

// Decompress implements Codec.
func (c *ZstdLike) Decompress(src []byte) ([]byte, error) {
	if len(src) < 5 {
		return nil, ErrCorrupt
	}
	rawLen := int(binary.LittleEndian.Uint32(src))
	litMode := src[4]
	r := frameReader{src: src, pos: 5}
	lits, err := r.literals(litMode)
	if err != nil {
		return nil, err
	}
	defer releaseLiterals(lits, litMode)
	seqs, err := r.readSeqs()
	if err != nil {
		return nil, err
	}
	defer putSeqs(seqs)
	return lzReconstruct(seqs, lits, rawLen)
}

// encodeLiterals Huffman-codes lits when that can pay; otherwise it stores
// them raw, returning lits itself (mode 0 is a view, as in decodeLiterals).
// The caller recycles the blob with releaseLiterals once it is copied into
// the frame, and lits separately.
func encodeLiterals(lits []byte) (blob []byte, mode byte, err error) {
	if !huffmanCanPay(lits) {
		return lits, 0, nil
	}
	enc, err := huffman.EncodeAllU8(lits)
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
		return huffman.DecodeAllU8(blob)
	default:
		return nil, ErrCorrupt
	}
}

// literals reads the length-prefixed blob encodeLiterals produced and
// decodes it.
func (r *frameReader) literals(mode byte) ([]byte, error) {
	blob, err := r.blob()
	if err != nil {
		return nil, err
	}
	return decodeLiterals(blob, mode)
}

// releaseLiterals recycles an encodeLiterals or decodeLiterals result (no-op
// for mode-0 views).
func releaseLiterals(lits []byte, mode byte) {
	if mode == 1 {
		sched.PutBytes(lits)
	}
}
