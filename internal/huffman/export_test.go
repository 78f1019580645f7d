package huffman

import (
	"fmt"

	"repro/internal/bitio"
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
	w.WriteBits(uint64(e>>5), uint(e&entryLenMask))
}

// EncodeAllU16 is the single-stream encoder over uint16 symbols, which
// production reaches only as EncodeMultiU16's small-input fallback.
func EncodeAllU16(symbols []uint16, alphabet int) ([]byte, error) {
	return encodeSeq(symbols, alphabet)
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
