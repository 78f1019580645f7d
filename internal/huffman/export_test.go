package huffman

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/sched"
)

// What only the tests need of a Codec: production code builds one from the
// symbols it is about to code (buildCodec) or reads one from a stream
// (readCodec), and moves symbols through the bulk coders.

// NewCodec builds the canonical code for the given occurrence counts, with
// both the encoder's code table and the decoder's lookup tables.
func NewCodec(frequencies []uint64) (*Codec, error) {
	c := new(Codec)
	if err := c.initFromFreqs(frequencies); err != nil {
		return nil, err
	}
	if len(c.sorted) > 0 {
		c.buildDecodeTable()
	}
	return c, nil
}

// NewCodecFromLengths rebuilds a decoder from a length table the way a
// stream does: serialized as runs, then read back through readCodec.
func NewCodecFromLengths(lengths []uint8) (*Codec, error) {
	w := new(bitio.Writer)
	writeLengthTable(w, lengths)
	return readCodec(bitio.NewReader(w.Bytes()), len(lengths))
}

// Lengths returns the per-symbol code length table.
func (c *Codec) Lengths() []uint8 { return c.lengths }

// CodeLen returns the code length of symbol s (0 if s has no code).
func (c *Codec) CodeLen(s int) uint8 { return c.lengths[s] }

// Encode appends the code for symbol s to w; a symbol with no code panics.
func (c *Codec) Encode(w *bitio.Writer, s int) {
	e := c.enc[s]
	if e == 0 {
		panic(fmt.Sprintf("huffman: symbol %d has no code", s))
	}
	w.WriteBits(uint64(e>>encShift), uint(e&encLenMask))
}

// EncodeAllU16 is the single-stream encoder over uint16 symbols, which
// production reaches only as EncodeMultiU16's small-input fallback.
func EncodeAllU16(symbols []uint16, alphabet int) ([]byte, error) {
	out, _, err := encodeSeq(symbols, alphabet)
	return out, err
}

// DecodeAllU16 decodes a single-stream blob — the length table (24-bit count
// + run-length coded lengths), a 32-bit symbol count, the bit-packed codes —
// into a buffer drawn from the sched uint16 pool; the caller owns it and
// should recycle it via sched.PutUint16s. The alphabet must fit uint16
// symbols (≤ 65536).
func DecodeAllU16(data []byte, alphabet int) ([]uint16, error) {
	if alphabet > 1<<16 {
		return nil, fmt.Errorf("huffman: alphabet %d exceeds uint16 symbols", alphabet)
	}
	out, _, _, err := decodeAll(data, alphabet, sched.GetUint16s, sched.PutUint16s)
	return out, err
}

// EncodeMultiSampled is the blob AppendMulti writes with a sampled code,
// without its length prefix.
func EncodeMultiSampled(symbols []uint16, alphabet, streams, step int, b Bounds) ([]byte, error) {
	sec, _, err := AppendMulti(nil, symbols, alphabet, streams, step, b)
	if err != nil {
		return nil, err
	}
	return unprefixed(sec), nil
}

// DecodeFast reads one symbol the way decodeSeq does: through the lookup
// tables, falling back to the reference decoder. It must return exactly what
// Decode would — same symbols, same errors, same stream position.
func (c *Codec) DecodeFast(r *bitio.Reader) (int, error) {
	if s, ok := c.decodeFast(r); ok {
		return s, nil
	}
	return c.Decode(r)
}
