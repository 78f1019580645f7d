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
	"repro/internal/lanes"
	"repro/internal/sched"
)

const (
	magic     = 0x535A0058 // "SZ\0X"
	blockSize = 128
)

// Compressor implements ebcl.Compressor.
type Compressor struct{}

// NewCompressor returns an SZx compressor.
func NewCompressor() *Compressor { return &Compressor{} }

// Name implements ebcl.Compressor.
func (c *Compressor) Name() string { return "szx" }

// Magic implements ebcl.Compressor.
func (c *Compressor) Magic() uint32 { return magic }

// ResolvedBound implements ebcl.Compressor.
func (c *Compressor) ResolvedBound(stream []byte) (float64, bool) { return ebcl.BoundOf(stream, magic) }

// StageTimers implements ebcl.Compressor: SZx times no stage of its own.
func (c *Compressor) StageTimers() *ebcl.StageTimers { return nil }

// CompressAppend implements ebcl.Compressor, appending the encoded stream
// to dst. The bit writer emits directly behind the header in dst's storage
// — no intermediate bit buffer or copy.
func (c *Compressor) CompressAppend(dst []byte, data []float32, p ebcl.Params) ([]byte, error) {
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

	// A first pass decides every block and sums the bits, so the output is
	// grown once to its exact size (plus the 8-byte store below) rather than
	// to the worst case, which cost a page-zeroing pass of 4 B an element.
	// A block's plan is its constant's bits behind flag bit 32, or its k.
	nBlocks := (len(data) + blockSize - 1) / blockSize
	plan := sched.GetUint64s(nBlocks)[:nBlocks]
	defer sched.PutUint64s(plan)
	bits := 0
	for b := range plan {
		lo := b * blockSize
		block := data[lo:min(lo+blockSize, len(data))]
		e := lanes.Scan(block)
		finite := e.Finite()
		if finite && e.Span() <= 2*ebAbs {
			// Constant block: flag 1, then the midpoint.
			mid := float32((float64(e.Hi) + float64(e.Lo)) / 2)
			plan[b] = 1<<32 | uint64(math.Float32bits(mid))
			bits += 33
			continue
		}
		// Keep k mantissa bits so truncation error 2^(emax-k) <= 2^ebExp.
		// A block holding NaN/Inf keeps the full mantissa: truncation could
		// silently turn NaN into Inf, and a non-finite maxAbs has no usable
		// exponent, so such blocks are stored losslessly.
		k := 23
		if finite {
			k = min(max(ilogb(e.MaxAbs())-ebExp, 0), 23)
		}
		plan[b] = uint64(k)
		// Flag 0, the 5-bit k, then sign + 8 exponent + k mantissa bits a value.
		bits += 6 + len(block)*(9+k)
	}

	out := slices.Grow(dst, 17+(bits+7)/8+8)
	out = ebcl.AppendHeader(out, magic, len(data), ebcl.LayoutFull)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(ebAbs))
	// The bits are written MSB-first the way huffman's appendCodes writes
	// codes: the nacc < 8 unwritten bits sit at the bottom of acc, and each
	// step adds its bits and stores them (bitio.StoreBits). Bits above the
	// unwritten ones are never cleared: the store shifts them out.
	buf := out[:cap(out)]
	pos := len(out)
	var acc uint64
	var nacc uint
	for b, p := range plan {
		if p>>32 != 0 {
			acc = acc<<33 | p
			nacc += 33
			pos, nacc = bitio.StoreBits(buf, pos, acc, nacc)
			continue
		}
		// Flag 0 and the 5-bit k, stored so fewer than 8 bits are pending.
		acc = acc<<6 | p
		nacc += 6
		pos, nacc = bitio.StoreBits(buf, pos, acc, nacc)
		lo := b * blockSize
		pos, acc, nacc = appendTruncated(buf, pos, acc, nacc, data[lo:min(lo+blockSize, len(data))], uint(9+p))
	}
	// The last partial byte, padded with zeros.
	bitio.StoreBits(buf, pos, acc, nacc)
	return buf[:pos+int(nacc+7)/8], nil
}

// appendTruncated is CompressAppend's truncation loop: it writes the top keep
// bits of each value behind the nacc < 8 pending bits of acc, and returns the
// new position and pending bits. Values go out as many to a store as fit
// beside the pending bits: four while keep ≤ 14, three while keep ≤ 18, two
// while keep ≤ 28, one otherwise. Inlined into CompressAppend, the compiler
// spills acc and nacc to the stack every step.
//
//go:noinline
func appendTruncated(buf []byte, pos int, acc uint64, nacc uint, block []float32, keep uint) (int, uint64, uint) {
	drop := (32 - keep) & 31
	k := keep & 63
	top := func(v float32) uint64 { return uint64(math.Float32bits(v) >> drop) }
	i := 0
	switch {
	case keep <= 14:
		for ; i+3 < len(block); i += 4 {
			four := (top(block[i])<<k|top(block[i+1]))<<(2*k&63) | top(block[i+2])<<k | top(block[i+3])
			acc = acc<<(4*k&63) | four
			nacc += 4 * keep
			pos, nacc = bitio.StoreBits(buf, pos, acc, nacc)
		}
	case keep <= 18:
		for ; i+2 < len(block); i += 3 {
			three := (top(block[i])<<k|top(block[i+1]))<<k | top(block[i+2])
			acc = acc<<(3*k&63) | three
			nacc += 3 * keep
			pos, nacc = bitio.StoreBits(buf, pos, acc, nacc)
		}
	case keep <= 28:
		for ; i+1 < len(block); i += 2 {
			acc = acc<<(2*k&63) | top(block[i])<<k | top(block[i+1])
			nacc += 2 * keep
			pos, nacc = bitio.StoreBits(buf, pos, acc, nacc)
		}
	}
	for _, v := range block[i:] {
		acc = acc<<k | top(v)
		nacc += keep
		pos, nacc = bitio.StoreBits(buf, pos, acc, nacc)
	}
	return pos, acc, nacc
}

// DecompressFinite implements ebcl.Compressor, reconstructing into dst's
// storage and returning the largest magnitude of the values it stored.
func (c *Compressor) DecompressFinite(dst []float32, stream []byte) ([]float32, lanes.AbsMax, error) {
	out, n, rest, full, err := ebcl.DecodeLayout(dst, stream, magic, ebcl.LayoutFull)
	if !full {
		return out, ebcl.Filled(out), err
	}
	if len(rest) < 8 {
		return nil, 0, ebcl.ErrCorrupt
	}
	r := bitio.NewReader(rest[8:])
	nBlocks := (n + blockSize - 1) / blockSize
	// Reject impossible block counts before allocating the output. A full
	// block costs at least 33 bits (constant: 1+32; truncation: 6+9·128),
	// while the final block may be partial — as small as one k=0 value,
	// 1+5+9 = 15 bits.
	if nBlocks > 0 && r.BitsRemaining() < (nBlocks-1)*33+15 {
		return nil, 0, ebcl.ErrCorrupt
	}
	out = ebcl.GrowFloats(dst, n)
	var m lanes.AbsMax
	for b := 0; b < nBlocks; b++ {
		lo := b * blockSize
		hi := min(lo+blockSize, n)
		// One refill covers the whole block prelude: flag plus either the
		// 32-bit constant or the 5-bit mantissa config (≤ 33 bits).
		r.Refill()
		if r.Buffered() < 1 {
			return nil, 0, ebcl.ErrCorrupt
		}
		if r.Peek(1) == 1 {
			if r.Buffered() < 33 {
				return nil, 0, ebcl.ErrCorrupt
			}
			v := math.Float32frombits(uint32(r.Peek(33)))
			r.Consume(33)
			m = m.With(v)
			for i := lo; i < hi; i++ {
				out[i] = v
			}
			continue
		}
		if r.Buffered() < 6 {
			return nil, 0, ebcl.ErrCorrupt
		}
		keep := 9 + uint(r.Peek(6)&31)
		r.Consume(6)
		for i := lo; i < hi; i++ {
			// keep ≤ 32 < 56, so a refill short of keep bits means the
			// stream itself ends mid-value.
			r.Refill()
			if r.Buffered() < keep {
				return nil, 0, ebcl.ErrCorrupt
			}
			out[i] = math.Float32frombits(uint32(r.Peek(keep)) << (32 - keep))
			m = m.With(out[i])
			r.Consume(keep)
		}
	}
	return out, m, nil
}

// ilogb returns floor(log2(x)) for finite positive x.
func ilogb(x float64) int {
	if x <= 0 {
		return -126
	}
	return int(math.Floor(math.Log2(x)))
}
