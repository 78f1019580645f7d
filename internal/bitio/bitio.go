// Package bitio provides MSB-first bit-level readers and writers used by the
// entropy-coding stages of the lossy and lossless compressors in this module.
//
// Writer accumulates bits into an internal byte buffer; Reader consumes bits
// from a byte slice. Both operate most-significant-bit first so that encoded
// streams are byte-order independent and diffable.
//
// Reader additionally exposes a branchless word-oriented fast path —
// Refill / Peek / Consume over a cached 64-bit accumulator — which is what
// the table-driven Huffman decoder and the bit-plane scanners use. The wire
// format is identical either way; the fast path only changes how many bits
// are moved per memory access.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnexpectedEOF is returned when a Reader runs out of bits mid-read.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of bitstream")

// Writer writes individual bits and fixed-width bit fields to an in-memory
// buffer, most significant bit first. The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // bit accumulator, filled from the MSB side
	nCur uint   // number of bits currently in cur (0..63)
}

// NewWriterBuffer returns a Writer that appends into buf's backing array,
// so callers recycling buffers through a pool can supply the storage and
// recover it (possibly regrown) from Bytes.
func NewWriterBuffer(buf []byte) *Writer {
	return &Writer{buf: buf[:0]}
}

// NewWriterAppend returns a Writer that appends after buf's existing
// contents — the zero-copy path for codecs emitting a bit stream directly
// behind an already-written header: Bytes returns the header and the bit
// stream in one slice, no intermediate buffer or copy.
func NewWriterAppend(buf []byte) *Writer {
	return &Writer{buf: buf}
}

// flushFullBytes drains complete bytes from the accumulator in one append,
// rather than a byte at a time.
func (w *Writer) flushFullBytes() {
	k := w.nCur >> 3
	if k == 0 {
		return
	}
	v := w.cur >> (w.nCur - 8*k)
	w.nCur -= 8 * k
	w.cur &= 1<<w.nCur - 1
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], v<<(64-8*k))
	w.buf = append(w.buf, tmp[:k]...)
}

// StoreBits is the store step of the accumulator loops that write bits
// without a Writer (huffman's code writer, szx's block writer): the nacc
// pending bits sit at the bottom of acc, nacc ≤ 64, and bits above them are
// never cleared. It writes them MSB-first at buf[pos:] with one
// unconditional 8-byte big-endian store, whose bytes past the bits are junk
// the next store overwrites, and returns the position past the whole bytes
// written and the count of bits still pending (< 8). buf must have 8 bytes
// from pos on.
func StoreBits(buf []byte, pos int, acc uint64, nacc uint) (int, uint) {
	binary.BigEndian.PutUint64(buf[pos:], acc<<((64-nacc)&63))
	return pos + int(nacc>>3), nacc & 7
}

// WriteBit appends a single bit; any nonzero value writes 1.
func (w *Writer) WriteBit(bit uint) {
	w.cur <<= 1
	if bit != 0 {
		w.cur |= 1
	}
	w.nCur++
	if w.nCur >= 56 {
		w.flushFullBytes()
	}
}

// WriteBits appends the low n bits of v, most significant of those bits
// first. n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits width %d > 64", n))
	}
	if n == 0 {
		return
	}
	if n < 64 {
		v &= 1<<n - 1
	}
	if w.nCur+n <= 64 {
		w.cur = w.cur<<n | v
		w.nCur += n
		if w.nCur >= 56 {
			w.flushFullBytes()
		}
		return
	}
	hi := 64 - w.nCur // bits that still fit
	w.cur = w.cur<<hi | v>>(n-hi)
	w.nCur = 64
	w.flushFullBytes()
	rest := n - hi
	w.cur = w.cur<<rest | v&(1<<rest-1)
	w.nCur += rest
	if w.nCur >= 56 {
		w.flushFullBytes()
	}
}

// Bytes returns the encoded stream, padding the final partial byte with zero
// bits. The returned slice aliases the writer's buffer; the writer must not
// be reused afterwards unless Reset is called.
func (w *Writer) Bytes() []byte {
	w.flushFullBytes()
	if w.nCur != 0 {
		b := byte(w.cur << (8 - w.nCur))
		return append(w.buf, b)
	}
	return w.buf
}

// Reader reads bits from a byte slice, most significant bit first.
//
// All reads go through a 64-bit accumulator: the next unread bit is bit 63
// of bits, and only the top nBits bits are valid (the rest are zero). The
// table-driven decoders drive the accumulator directly via Refill / Peek /
// Consume; ReadBit / ReadBits are defined on top of it.
type Reader struct {
	data  []byte
	pos   int    // next byte of data to load into the accumulator
	bits  uint64 // accumulator, MSB-justified: top nBits bits are valid
	nBits uint   // valid bits in the accumulator (0..64)
}

// NewReader returns a Reader over data. The slice is not copied.
func NewReader(data []byte) *Reader {
	return &Reader{data: data}
}

// Reset re-points r at data, discarding any buffered state. It lets hot
// loops keep Readers as stack values (e.g. one per sub-stream in the
// multi-stream Huffman decoder) instead of allocating via NewReader.
func (r *Reader) Reset(data []byte) {
	*r = Reader{data: data}
}

// Refill tops the accumulator up to at least 56 valid bits, or to all
// remaining stream bits when fewer are left. After Refill, any Peek/Consume
// of up to min(56, BitsRemaining()) bits is safe without further checks.
func (r *Reader) Refill() {
	if r.nBits >= 56 {
		return
	}
	if r.pos+8 <= len(r.data) {
		// One 64-bit load tops the accumulator up to 56..63 valid bits.
		// The load may bring in up to 7 bits beyond the bytes pos advances
		// over; they sit below the valid region and are re-ORed with
		// identical values on the next refill, so they are harmless — and
		// being real stream bits, they never fake data past the end.
		r.bits |= binary.BigEndian.Uint64(r.data[r.pos:]) >> r.nBits
		r.pos += int((63 - r.nBits) >> 3)
		r.nBits |= 56
		return
	}
	r.refillTail()
}

// refillTail is Refill's byte-at-a-time path for the last <8 bytes of the
// stream, kept out of line so Refill itself stays inlinable.
func (r *Reader) refillTail() {
	for r.nBits < 56 && r.pos < len(r.data) {
		r.bits |= uint64(r.data[r.pos]) << (56 - r.nBits)
		r.pos++
		r.nBits += 8
	}
}

// Peek returns the next n bits (MSB-first) without consuming them, n in
// [0, 56]. Bits past the end of the stream read as zero. Callers are
// responsible for calling Refill first and for checking Buffered /
// BitsRemaining before trusting more than Buffered() bits.
func (r *Reader) Peek(n uint) uint64 {
	return r.bits >> (64 - n)
}

// Consume discards the next n bits. n must not exceed Buffered().
func (r *Reader) Consume(n uint) {
	if n > r.nBits {
		panic("bitio: Consume exceeds buffered bits")
	}
	r.bits <<= n
	r.nBits -= n
}

// ConsumeFast is Consume without the buffered-bits guard, for hot loops
// that have already established n <= Buffered() as a loop invariant (the
// wide Huffman decoder checks one max-length code per stream per round).
// Violating the invariant corrupts the reader's position instead of
// panicking.
func (r *Reader) ConsumeFast(n uint) {
	r.bits <<= n
	r.nBits -= n
}

// Buffered reports the number of valid bits currently in the accumulator.
// After Refill it is min(56..63, BitsRemaining()); a value below a needed
// width after Refill therefore means the stream itself is short.
func (r *Reader) Buffered() uint { return r.nBits }

// ReadBit reads one bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.nBits == 0 {
		r.Refill()
		if r.nBits == 0 {
			return 0, ErrUnexpectedEOF
		}
	}
	bit := uint(r.bits >> 63)
	r.bits <<= 1
	r.nBits--
	return bit, nil
}

// ReadBits reads an n-bit big-endian field, n in [0, 64].
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: ReadBits width %d > 64", n))
	}
	if n == 0 {
		return 0, nil
	}
	if n <= r.nBits {
		v := r.bits >> (64 - n)
		r.bits <<= n
		r.nBits -= n
		return v, nil
	}
	r.Refill()
	if n <= r.nBits {
		v := r.bits >> (64 - n)
		r.bits <<= n
		r.nBits -= n
		return v, nil
	}
	// Wide read near the accumulator boundary (n in 57..64) or end of
	// stream: drain what is buffered, refill, take the rest.
	if n > uint(r.BitsRemaining()) {
		return 0, ErrUnexpectedEOF
	}
	take := r.nBits // < 64 here, since n <= 64 did not fit
	v := r.bits >> (64 - take)
	r.bits, r.nBits = 0, 0
	r.Refill()
	rest := n - take // <= 8 once a refill succeeded
	v = v<<rest | r.bits>>(64-rest)
	r.bits <<= rest
	r.nBits -= rest
	return v, nil
}

// BitsRemaining reports the number of unread bits.
func (r *Reader) BitsRemaining() int {
	return (len(r.data)-r.pos)*8 + int(r.nBits)
}
