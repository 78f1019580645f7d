// Package szx is a pure-Go reimplementation of the SZx ultrafast
// error-bounded lossy compressor (Yu et al., HPDC 2022) for 1-D float32
// arrays.
//
// SZx trades ratio and reconstruction quality for extreme speed using only
// bit-level operations:
//
//   - The array is split into fixed-size blocks.
//   - A block whose value range fits within twice the absolute error bound
//     becomes a *constant block*: a single float32 (the block midpoint)
//     represents every element.
//   - Other blocks are *truncation blocks*: each value keeps its sign bit,
//     exponent, and just enough leading mantissa bits for the worst-case
//     truncation error to stay within the bound.
//
// Both representations respect the error bound, yet on federated-learning
// weight data the constant-block path is exactly what destroys model
// accuracy in the paper (Table I: 10% top-1 for every bound): under a
// range-relative bound, most near-zero weight blocks collapse to their
// midpoint, erasing the sign structure the network relies on.
package szx

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitio"
	"repro/internal/ebcl"
)

const (
	magic     = 0x535A0058 // "SZ\0X"
	blockSize = 128
)

// Params re-exports ebcl.Params.
type Params = ebcl.Params

// Compressor implements ebcl.Compressor.
type Compressor struct{}

// NewCompressor returns an SZx compressor.
func NewCompressor() *Compressor { return &Compressor{} }

// Name implements ebcl.Compressor.
func (c *Compressor) Name() string { return "szx" }

// Compress implements ebcl.Compressor (CompressAppend with a nil dst).
func (c *Compressor) Compress(data []float32, p Params) ([]byte, error) {
	return c.CompressAppend(nil, data, p)
}

// Decompress implements ebcl.Compressor (DecompressInto with a nil dst).
func (c *Compressor) Decompress(stream []byte) ([]float32, error) {
	return c.DecompressInto(nil, stream)
}

// DecodedLen implements ebcl.Compressor: the element count from the stream
// header, without decoding any payload.
func (c *Compressor) DecodedLen(stream []byte) (int, error) {
	n, _, _, err := ebcl.ParseHeader(stream, magic)
	return n, err
}

// CompressAppend implements ebcl.Compressor, appending the encoded stream
// to dst. The bit writer emits directly behind the header in dst's storage
// — no intermediate bit buffer or copy.
func (c *Compressor) CompressAppend(dst []byte, data []float32, p Params) ([]byte, error) {
	if p.Mode == ebcl.ModeFixedPrecision {
		return nil, fmt.Errorf("szx: fixed-precision mode unsupported")
	}
	ebAbs, err := ebcl.ResolveAbs(data, p)
	if err != nil {
		return nil, err
	}
	if out, ok := ebcl.AppendDegenerate(dst, magic, data, ebAbs == 0); ok {
		return out, nil
	}

	// Mantissa bits are kept relative to the bound's binary exponent.
	ebExp := ilogb(ebAbs)

	nBlocks := (len(data) + blockSize - 1) / blockSize
	// Room for the worst case up front (every block full-mantissa: 6 bits of
	// prelude plus 32 per value), so the bit writer never regrows and copies.
	out := slices.Grow(dst, 32+4*len(data)+nBlocks)
	out = ebcl.AppendHeader(out, magic, len(data), ebcl.LayoutFull)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(ebAbs))
	w := bitio.NewWriterAppend(out)
	for b := 0; b < nBlocks; b++ {
		lo := b * blockSize
		hi := min(lo+blockSize, len(data))
		block := data[lo:hi]
		// NaN/±Inf are whatever reaches the all-ones exponent.
		bMin, bMax, maxAbsBits := ebcl.MinMax(block)
		finite := maxAbsBits < 0x7f800000
		if finite && float64(bMax)-float64(bMin) <= 2*ebAbs {
			// Constant block: midpoint representation.
			w.WriteBit(1)
			mid := float32((float64(bMax) + float64(bMin)) / 2)
			w.WriteBits(uint64(math.Float32bits(mid)), 32)
			continue
		}
		w.WriteBit(0)
		// Keep k mantissa bits so truncation error 2^(emax-k) <= 2^ebExp.
		// A block holding NaN/Inf keeps the full mantissa: truncation could
		// silently turn NaN into Inf, and a non-finite maxAbs has no usable
		// exponent, so such blocks are stored losslessly.
		k := 23
		if finite {
			emax := ilogb(float64(math.Float32frombits(maxAbsBits)))
			k = emax - ebExp
			if k < 0 {
				k = 0
			}
			if k > 23 {
				k = 23
			}
		}
		w.WriteBits(uint64(k), 5)
		keep := uint(9 + k) // sign + 8 exponent + k mantissa bits
		// Gather as many values as fit in one 64-bit push: the writer's
		// per-call cost is most of this loop.
		drop := 32 - keep
		var acc uint64
		var nAcc uint
		for _, v := range block {
			if nAcc+keep > 64 {
				w.WriteBits(acc, nAcc)
				acc, nAcc = 0, 0
			}
			acc = acc<<keep | uint64(math.Float32bits(v)>>drop)
			nAcc += keep
		}
		w.WriteBits(acc, nAcc)
	}
	return w.Bytes(), nil
}

// DecompressInto implements ebcl.Compressor, reconstructing into dst's
// storage.
func (c *Compressor) DecompressInto(dst []float32, stream []byte) ([]float32, error) {
	out, n, rest, full, err := ebcl.DecodeLayout(dst, stream, magic)
	if !full {
		return out, err
	}
	if len(rest) < 8 {
		return nil, ebcl.ErrCorrupt
	}
	r := bitio.NewReader(rest[8:])
	nBlocks := (n + blockSize - 1) / blockSize
	// Reject impossible block counts before allocating the output. A full
	// block costs at least 33 bits (constant: 1+32; truncation: 6+9·128),
	// while the final block may be partial — as small as one k=0 value,
	// 1+5+9 = 15 bits.
	if nBlocks > 0 && r.BitsRemaining() < (nBlocks-1)*33+15 {
		return nil, ebcl.ErrCorrupt
	}
	out = ebcl.GrowFloats(dst, n)
	for b := 0; b < nBlocks; b++ {
		lo := b * blockSize
		hi := min(lo+blockSize, n)
		// One refill covers the whole block prelude: flag plus either the
		// 32-bit constant or the 5-bit mantissa config (≤ 33 bits).
		r.Refill()
		if r.Buffered() < 1 {
			return nil, ebcl.ErrCorrupt
		}
		if r.Peek(1) == 1 {
			if r.Buffered() < 33 {
				return nil, ebcl.ErrCorrupt
			}
			v := math.Float32frombits(uint32(r.Peek(33)))
			r.Consume(33)
			for i := lo; i < hi; i++ {
				out[i] = v
			}
			continue
		}
		if r.Buffered() < 6 {
			return nil, ebcl.ErrCorrupt
		}
		keep := 9 + uint(r.Peek(6)&31)
		r.Consume(6)
		for i := lo; i < hi; i++ {
			// keep ≤ 32 < 56, so a refill short of keep bits means the
			// stream itself ends mid-value.
			r.Refill()
			if r.Buffered() < keep {
				return nil, ebcl.ErrCorrupt
			}
			out[i] = math.Float32frombits(uint32(r.Peek(keep)) << (32 - keep))
			r.Consume(keep)
		}
	}
	return out, nil
}

// ilogb returns floor(log2(x)) for finite positive x.
func ilogb(x float64) int {
	if x <= 0 {
		return -126
	}
	return int(math.Floor(math.Log2(x)))
}
