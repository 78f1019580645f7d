// Package zfp is a pure-Go reimplementation of the ZFP fixed-rate/precision
// compressed floating-point array codec (Lindstrom, TVCG 2014) for 1-D
// float32 data, in fixed-precision mode — the mode the FedSZ paper selects
// as the closest analogue to a relative error bound (§V-D1).
//
// Per 4-value block:
//
//  1. Block-float conversion: values are scaled by the block's common
//     exponent into 32-bit signed fixed point.
//  2. The ZFP forward lifting transform decorrelates the block (an exact
//     integer approximation of an orthogonal transform).
//  3. Coefficients map to negabinary so magnitude ordering survives.
//  4. Bit planes are encoded MSB-first with ZFP's embedded group-testing
//     scheme; fixed-precision mode keeps the top `precision` planes.
//
// Because the paper's relative-bound sweeps drive all four compressors with
// one knob, CompressAppend also accepts ModeRelative/ModeAbsolute and maps the
// bound to an equivalent precision (≈ log2(1/eb) bit planes); like real
// ZFP's precision mode this provides no hard error guarantee, only an
// empirically tight one.
package zfp

import (
	"fmt"
	"math"

	"repro/internal/bitio"
	"repro/internal/ebcl"
	"repro/internal/lanes"
)

const (
	magic     = 0x5A465031 // "ZFP1"
	blockLen  = 4
	intScale  = 30 // fixed-point scale: values in [-1,1] → ±2^30
	nbmask    = 0xaaaaaaaa
	maxPlanes = 32

	// emaxEscape is the 10-bit exponent sentinel marking a literal block:
	// a block containing NaN/±Inf has no usable common exponent, so its
	// four values are stored as raw IEEE-754 bits instead of being clamped
	// to zero (the same literal-escape discipline as SZ2/SZ3/SZx). Real
	// float32 exponents encode as emax+256 ∈ [108, 385], far from 1023.
	emaxEscape = 1<<10 - 1
)

// Compressor implements ebcl.Compressor.
type Compressor struct{}

// NewCompressor returns a ZFP compressor.
func NewCompressor() *Compressor { return &Compressor{} }

// Name implements ebcl.Compressor.
func (c *Compressor) Name() string { return "zfp" }

// Magic implements ebcl.Compressor.
func (c *Compressor) Magic() uint32 { return magic }

// ResolvedBound implements ebcl.Compressor: fixed precision has no formal
// bound, so no stream records one.
func (c *Compressor) ResolvedBound([]byte) (float64, bool) { return 0, false }

// StageTimers implements ebcl.Compressor: ZFP times no stage of its own.
func (c *Compressor) StageTimers() *ebcl.StageTimers { return nil }

// PrecisionForBound maps a relative error bound to the plane count used in
// fixed-precision mode (paper: "the closest analogous option").
func PrecisionForBound(eb float64) int {
	if eb <= 0 {
		return maxPlanes
	}
	p := int(math.Ceil(math.Log2(1/eb))) + 2
	if p < 2 {
		p = 2
	}
	if p > maxPlanes {
		p = maxPlanes
	}
	return p
}

// CompressAppend implements ebcl.Compressor, appending the encoded stream
// to dst. The plane coder emits directly behind the header in dst's
// storage — no intermediate bit buffer or copy.
func (c *Compressor) CompressAppend(dst []byte, data []float32, p ebcl.Params) ([]byte, error) {
	var precision int
	switch p.Mode {
	case ebcl.ModeFixedPrecision:
		if p.Value < 1 || p.Value > maxPlanes {
			return nil, fmt.Errorf("zfp: precision %g out of [1,%d]", p.Value, maxPlanes)
		}
		precision = int(p.Value)
	case ebcl.ModeRelative, ebcl.ModeAbsolute:
		if p.Value <= 0 {
			return nil, fmt.Errorf("zfp: bound must be positive, got %g", p.Value)
		}
		precision = PrecisionForBound(p.Value)
	default:
		return nil, fmt.Errorf("zfp: unknown mode %v", p.Mode)
	}
	if out, ok := ebcl.AppendDegenerate(dst, magic, data, len(data) > 0 && allEqual(data)); ok {
		return out, nil
	}

	out := ebcl.AppendHeader(dst, magic, len(data), ebcl.LayoutFull)
	out = append(out, byte(precision))
	w := bitio.NewWriterAppend(out)

	var block [blockLen]float32
	for lo := 0; lo < len(data); lo += blockLen {
		hi := min(lo+blockLen, len(data))
		m := copy(block[:], data[lo:hi])
		for i := m; i < blockLen; i++ {
			block[i] = block[m-1] // pad partial tail block
		}
		encodeBlock(w, &block, precision)
	}
	return w.Bytes(), nil
}

// DecompressFinite implements ebcl.Compressor, reconstructing into dst's
// storage and returning the largest magnitude of the values it stored.
func (c *Compressor) DecompressFinite(dst []float32, stream []byte) ([]float32, lanes.AbsMax, error) {
	out, n, rest, full, err := ebcl.DecodeLayout(dst, stream, magic, ebcl.LayoutFull)
	if !full {
		return out, ebcl.Filled(out), err
	}
	if len(rest) < 1 {
		return nil, 0, ebcl.ErrCorrupt
	}
	precision := int(rest[0])
	if precision < 1 || precision > maxPlanes {
		return nil, 0, ebcl.ErrCorrupt
	}
	r := bitio.NewReader(rest[1:])
	// Each 4-value block costs at least its 1 zero-flag bit; reject counts
	// the stream cannot possibly carry before allocating.
	if n/blockLen > r.BitsRemaining() {
		return nil, 0, ebcl.ErrCorrupt
	}
	out = ebcl.GrowFloats(dst, n)
	var block [blockLen]float32
	var m lanes.AbsMax
	for lo := 0; lo < n; lo += blockLen {
		if err := decodeBlock(r, &block, precision); err != nil {
			return nil, 0, err
		}
		part := out[lo:min(lo+blockLen, n)]
		copy(part, block[:])
		for _, v := range part {
			m = m.With(v)
		}
	}
	return out, m, nil
}

// encodeBlock writes one 4-value block: a zero flag, the common exponent,
// and the group-tested bit planes of the negabinary coefficients. Blocks
// containing NaN/±Inf escape to raw IEEE-754 literals behind the
// emaxEscape sentinel, so non-finite values round-trip bit-exactly and
// their finite neighbours survive unclamped.
func encodeBlock(w *bitio.Writer, block *[blockLen]float32, precision int) {
	e := lanes.Scan(block[:])
	if !e.Finite() {
		w.WriteBit(1)
		w.WriteBits(emaxEscape, 10)
		for _, v := range block {
			w.WriteBits(uint64(math.Float32bits(v)), 32)
		}
		return
	}
	if e.MaxAbs() == 0 {
		// All-zero block.
		w.WriteBit(0)
		return
	}
	w.WriteBit(1)
	emax := int(math.Floor(math.Log2(e.MaxAbs()))) + 1 // values < 2^emax
	w.WriteBits(uint64(uint16(int16(emax+256))), 10)

	scale := math.Ldexp(1, intScale-emax)
	var iv [blockLen]int32
	for i, v := range block {
		iv[i] = int32(float64(v) * scale)
	}
	fwdLift(&iv)
	var u [blockLen]uint32
	for i, x := range iv {
		u[i] = negabinary(x)
	}
	// Embedded coding, MSB plane first, keeping `precision` planes.
	sigCount := 0
	for plane := 31; plane >= 32-precision; plane-- {
		encodePlane(w, &u, plane, &sigCount)
	}
}

func decodeBlock(r *bitio.Reader, block *[blockLen]float32, precision int) error {
	flag, err := r.ReadBit()
	if err != nil {
		return ebcl.ErrCorrupt
	}
	if flag == 0 {
		for i := range block {
			block[i] = 0
		}
		return nil
	}
	e10, err := r.ReadBits(10)
	if err != nil {
		return ebcl.ErrCorrupt
	}
	if e10 == emaxEscape {
		// Literal block: four raw IEEE-754 values.
		for i := range block {
			bits, err := r.ReadBits(32)
			if err != nil {
				return ebcl.ErrCorrupt
			}
			block[i] = math.Float32frombits(uint32(bits))
		}
		return nil
	}
	emax := int(int16(e10)) - 256

	var u [blockLen]uint32
	sigCount := 0
	for plane := 31; plane >= 32-precision; plane-- {
		if err := decodePlane(r, &u, plane, &sigCount); err != nil {
			return err
		}
	}
	var iv [blockLen]int32
	for i, x := range u {
		iv[i] = fromNegabinary(x)
	}
	invLift(&iv)
	scale := math.Ldexp(1, emax-intScale)
	for i, x := range iv {
		block[i] = float32(float64(x) * scale)
	}
	return nil
}

// planeMaxBits bounds one plane's encoding: blockLen significance bits plus
// at most one group-test bit per value — the worst case alternates test and
// value bits over the insignificant tail.
const planeMaxBits = 2*blockLen + 1

// encodePlane implements ZFP's embedded group-test coding of one bit plane.
// sigCount values are already significant (in coefficient order) and emit
// their plane bit verbatim; the insignificant tail is coded with a test bit
// per group followed by a unary search for each newly significant value.
// The plane's bits (≤ planeMaxBits) are packed locally and flushed with one
// WriteBits call.
func encodePlane(w *bitio.Writer, u *[blockLen]uint32, plane int, sigCount *int) {
	bit := func(i int) uint64 { return uint64(u[i]>>uint(plane)) & 1 }
	var acc uint64
	var k uint
	n := *sigCount
	for i := 0; i < n; i++ {
		acc = acc<<1 | bit(i)
		k++
	}
	for n < blockLen {
		any := uint64(0)
		for j := n; j < blockLen; j++ {
			if bit(j) == 1 {
				any = 1
				break
			}
		}
		acc = acc<<1 | any
		k++
		if any == 0 {
			break
		}
		for {
			b := bit(n)
			acc = acc<<1 | b
			k++
			n++
			if b == 1 {
				break
			}
		}
	}
	*sigCount = n
	w.WriteBits(acc, k)
}

func decodePlane(r *bitio.Reader, u *[blockLen]uint32, plane int, sigCount *int) error {
	// One refill covers a whole plane (≤ planeMaxBits ≤ 9 bits): peek a
	// window once, walk it locally, and consume the bits actually used.
	r.Refill()
	avail := r.Buffered()
	win := r.Peek(planeMaxBits)
	used := uint(0)
	next := func() (uint32, bool) {
		if used >= avail {
			return 0, false
		}
		b := uint32(win>>(planeMaxBits-1-used)) & 1
		used++
		return b, true
	}
	n := *sigCount
	for i := 0; i < n; i++ {
		b, ok := next()
		if !ok {
			return ebcl.ErrCorrupt
		}
		u[i] |= b << uint(plane)
	}
	for n < blockLen {
		any, ok := next()
		if !ok {
			return ebcl.ErrCorrupt
		}
		if any == 0 {
			break
		}
		// A valid stream has a 1-bit among the remaining values; a corrupt
		// one may not, so bound the scan instead of trusting the test bit.
		found := false
		for n < blockLen {
			b, ok := next()
			if !ok {
				return ebcl.ErrCorrupt
			}
			u[n] |= b << uint(plane)
			n++
			if b == 1 {
				found = true
				break
			}
		}
		if !found {
			break
		}
	}
	*sigCount = n
	r.Consume(used)
	return nil
}

// allEqual reports whether every element equals the first (bit-wise, so a
// NaN-filled array is not treated as constant).
func allEqual(data []float32) bool {
	first := math.Float32bits(data[0])
	for _, v := range data[1:] {
		if math.Float32bits(v) != first {
			return false
		}
	}
	return true
}

// fwdLift is ZFP's forward decorrelating lifting transform for 4 values.
func fwdLift(p *[blockLen]int32) {
	x, y, z, w := p[0], p[1], p[2], p[3]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	p[0], p[1], p[2], p[3] = x, y, z, w
}

// invLift exactly inverts fwdLift.
func invLift(p *[blockLen]int32) {
	x, y, z, w := p[0], p[1], p[2], p[3]
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[0], p[1], p[2], p[3] = x, y, z, w
}

// negabinary maps a two's-complement int32 to an unsigned value whose
// magnitude ordering matches bit-plane significance.
func negabinary(x int32) uint32 {
	return (uint32(x) + nbmask) ^ nbmask
}

func fromNegabinary(u uint32) int32 {
	return int32((u ^ nbmask) - nbmask)
}
