// Package sz3 is a pure-Go reimplementation of the SZ3 error-bounded lossy
// compressor (Liang et al., IEEE TBD 2023; Zhao et al., ICDE 2021) for 1-D
// float32 arrays.
//
// SZ3 replaces SZ2's block-local Lorenzo/regression hybrid with a
// multi-level *interpolation* predictor: reconstruct a coarse grid first,
// then repeatedly predict the midpoints of the current grid with dynamic
// spline interpolation (cubic where four support points exist, linear
// otherwise), quantizing each residual. No regression coefficients need to
// be stored — the property the paper credits for SZ3's ratio advantage at
// high error bounds — but the per-level predictor selection makes it
// measurably slower than SZ2, also as reported.
//
// Everything after quantization (Huffman, the trailing lossless stage, the
// stream frame) is the back end shared with SZ2: ebcl.Format, ebcl.Sections.
package sz3

import (
	"math"
	"time"

	"repro/internal/ebcl"
	"repro/internal/lanes"
	"repro/internal/sched"
)

const (
	levelLinear = 0
	levelCubic  = 1
)

// format is SZ3's stream: magic "SZ\0\3", one interpolant kind per level,
// no coefficients.
var format = ebcl.Format{Magic: 0x535A0003, Name: "sz3",
	Timers: ebcl.NewStageTimers()}

// The interpolation level structure is derived from the array length alone,
// so any split point yields two valid independent streams; the core
// pipeline's v4 chunking still aligns to ebcl.PredictorBlockElems (shared
// with SZ2's block grid) so one grid serves every codec. Chunking
// additionally bounds this codec's per-decode scratch — the float64
// reconstruction grid is sized by the (sub-)stream length — to a chunk
// rather than the whole tensor.

// Compressor implements ebcl.Compressor.
type Compressor struct{}

// NewCompressor returns an SZ3 compressor with default settings.
func NewCompressor() *Compressor { return &Compressor{} }

// Name implements ebcl.Compressor.
func (c *Compressor) Name() string { return "sz3" }

// Magic implements ebcl.Compressor.
func (c *Compressor) Magic() uint32 { return format.Magic }

// ResolvedBound implements ebcl.Compressor.
func (c *Compressor) ResolvedBound(stream []byte) (float64, bool) {
	return ebcl.BoundOf(stream, format.Magic)
}

// StageTimers implements ebcl.Compressor: the histograms each blob's stages
// are timed in.
func (c *Compressor) StageTimers() *ebcl.StageTimers { return format.Timers }

// CompressAppend implements ebcl.Compressor, appending the encoded stream
// to dst. All scratch comes from the sched pools: the float64
// reconstruction grid is returned here, the quantization codes, escape
// literals and level kinds by the shared back end they are handed to.
func (c *Compressor) CompressAppend(dst []byte, data []float32, p ebcl.Params) ([]byte, error) {
	start := time.Now()
	ebAbs, out, done, err := format.Begin(dst, data, p)
	if done || err != nil {
		return out, err
	}

	n := len(data)
	q := ebcl.NewQuantizer(ebAbs)
	recon := sched.GetFloat64s(n)[:n]
	defer sched.PutFloat64s(recon)
	codes := sched.GetUint16s(n)
	literals := sched.GetFloats(n / 64)
	levelKinds := sched.GetBytes(64)
	var tally ebcl.Tally // the zero span: Finish counts every code

	// Anchor: quantize data[0] against a zero prediction.
	quantizePoint := func(i int, pred float64) {
		code, rec, ok := q.Quantize(float64(data[i]), pred)
		if !ok {
			codes = append(codes, ebcl.EscapeCode)
			literals = append(literals, data[i])
			recon[i] = float64(data[i])
			return
		}
		codes = append(codes, uint16(code))
		recon[i] = float64(rec)
		if d := math.Abs(float64(data[i]) - recon[i]); d > tally.Worst {
			tally.Worst = d
		}
	}
	quantizePoint(0, 0)

	// Levels from the largest power-of-two stride covering the array down
	// to 1. Before level s, indices that are multiples of 2s are
	// reconstructed; the level fills indices ≡ s (mod 2s).
	//
	// Within a level every point reads only the coarser grid (indices that
	// are multiples of 2s) and writes its own index (≡ s mod 2s), so the
	// four interpolations of an unrolled group never alias the writes —
	// computing the predictions up front gives four independent gather+FMA
	// chains per iteration.
	for s := topStride(n); s >= 1; s /= 2 {
		kind := chooseLevelPredictor(data, n, s)
		levelKinds = append(levelKinds, kind)
		step := 2 * s
		i := s
		for ; i+3*step < n; i += 4 * step {
			p0 := interpolate(recon, n, i, s, kind)
			p1 := interpolate(recon, n, i+step, s, kind)
			p2 := interpolate(recon, n, i+2*step, s, kind)
			p3 := interpolate(recon, n, i+3*step, s, kind)
			quantizePoint(i, p0)
			quantizePoint(i+step, p1)
			quantizePoint(i+2*step, p2)
			quantizePoint(i+3*step, p3)
		}
		for ; i < n; i += step {
			pred := interpolate(recon, n, i, s, kind)
			quantizePoint(i, pred)
		}
	}

	return format.Finish(dst, start, ebAbs, p, levelKinds, nil, codes, tally, literals)
}

// DecompressFinite implements ebcl.Compressor, reconstructing into dst's
// storage and returning the largest magnitude of every value it wrote.
// Literals are read in place and the float64 grid comes from the sched pool.
func (c *Compressor) DecompressFinite(dst []float32, stream []byte) ([]float32, lanes.AbsMax, error) {
	var sec ebcl.Sections
	out, full, err := sec.Open(format, dst, stream)
	if !full {
		return out, ebcl.Filled(out), err
	}
	defer sec.Close()
	n, codes, levelKinds := len(out), sec.Codes, sec.Kinds
	wantLevels := 0
	for s := topStride(n); s >= 1; s /= 2 {
		wantLevels++
	}
	if len(levelKinds) != wantLevels {
		return nil, 0, ebcl.ErrCorrupt
	}

	q := ebcl.NewQuantizer(sec.EbAbs)
	recon := sched.GetFloat64s(n)[:n]
	defer sched.PutFloat64s(recon)
	codeIdx := 0
	var m lanes.AbsMax
	reconstructPoint := func(i int, pred float64) {
		code := codes[codeIdx]
		codeIdx++
		if code == ebcl.EscapeCode {
			out[i] = sec.NextLiteral()
		} else {
			out[i] = q.Dequantize(int(code), pred)
		}
		recon[i] = float64(out[i])
		m = m.With(out[i])
	}
	reconstructPoint(0, 0)
	lvl := 0
	for s := topStride(n); s >= 1; s /= 2 {
		kind := levelKinds[lvl]
		lvl++
		if kind != levelLinear && kind != levelCubic {
			return nil, 0, ebcl.ErrCorrupt
		}
		// Mirror of the encoder's unroll: interpolations read only the
		// coarser grid while reconstructPoint writes the current level, so
		// hoisting four predictions is alias-free and bit-identical to the
		// one-at-a-time order.
		step := 2 * s
		i := s
		for ; i+3*step < n; i += 4 * step {
			p0 := interpolate(recon, n, i, s, kind)
			p1 := interpolate(recon, n, i+step, s, kind)
			p2 := interpolate(recon, n, i+2*step, s, kind)
			p3 := interpolate(recon, n, i+3*step, s, kind)
			reconstructPoint(i, p0)
			reconstructPoint(i+step, p1)
			reconstructPoint(i+2*step, p2)
			reconstructPoint(i+3*step, p3)
		}
		for ; i < n; i += step {
			pred := interpolate(recon, n, i, s, kind)
			reconstructPoint(i, pred)
		}
	}
	if !sec.LiteralsConsumed() {
		return nil, 0, ebcl.ErrCorrupt
	}
	return out, m, nil
}

// topStride returns the largest power-of-two stride < n (minimum 1).
func topStride(n int) int {
	s := 1
	for 2*s < n {
		s *= 2
	}
	return s
}

// interpolate predicts recon[i] at level stride s. Neighbours at i±s and
// i±3s lie on the already-reconstructed coarser grid. Falls back from cubic
// to linear to left-neighbour as support shrinks at the boundaries.
func interpolate(recon []float64, n, i, s int, kind byte) float64 {
	left := i - s // always >= 0 by construction
	right := i + s
	if right >= n {
		return recon[left]
	}
	if kind == levelCubic && i-3*s >= 0 && i+3*s < n {
		// 4-point cubic (Catmull-Rom at midpoint): (-1, 9, 9, -1)/16.
		return (-recon[i-3*s] + 9*recon[left] + 9*recon[right] - recon[i+3*s]) / 16
	}
	return (recon[left] + recon[right]) / 2
}

// chooseLevelPredictor samples both interpolants against the original data
// and picks the one with smaller total absolute residual — SZ3's dynamic
// spline selection (the extra pass is what makes SZ3 slower than SZ2).
func chooseLevelPredictor(data []float32, n, s int) byte {
	// Interior points (full cubic support, right neighbour in range) are
	// scored 4-wide with independent accumulators; the few boundary points
	// fall through to the scalar loop.
	var lin0, lin1, lin2, lin3 float64
	var cub0, cub1, cub2, cub3 float64
	var linErr, cubErr float64
	count := 0
	step := 2 * s
	i := s
	if lo := 3 * s; i < lo {
		for ; i < n && i < lo; i += step {
			left, right := i-s, i+s
			if right >= n {
				continue
			}
			v := float64(data[i])
			lin := (float64(data[left]) + float64(data[right])) / 2
			linErr += math.Abs(v - lin)
			cubErr += math.Abs(v - lin)
			count++
		}
	}
	score := func(i int) (lin, cub float64) {
		v := float64(data[i])
		dl, dr := float64(data[i-s]), float64(data[i+s])
		l := (dl + dr) / 2
		c := (-float64(data[i-3*s]) + 9*dl + 9*dr - float64(data[i+3*s])) / 16
		return math.Abs(v - l), math.Abs(v - c)
	}
	for ; i+3*step+3*s < n; i += 4 * step {
		l0, c0 := score(i)
		l1, c1 := score(i + step)
		l2, c2 := score(i + 2*step)
		l3, c3 := score(i + 3*step)
		lin0 += l0
		lin1 += l1
		lin2 += l2
		lin3 += l3
		cub0 += c0
		cub1 += c1
		cub2 += c2
		cub3 += c3
		count += 4
	}
	linErr += lin0 + lin1 + lin2 + lin3
	cubErr += cub0 + cub1 + cub2 + cub3
	for ; i < n; i += step {
		left, right := i-s, i+s
		if right >= n {
			continue
		}
		v := float64(data[i])
		lin := (float64(data[left]) + float64(data[right])) / 2
		linErr += math.Abs(v - lin)
		if i-3*s >= 0 && i+3*s < n {
			cub := (-float64(data[i-3*s]) + 9*float64(data[left]) + 9*float64(data[right]) - float64(data[i+3*s])) / 16
			cubErr += math.Abs(v - cub)
		} else {
			cubErr += math.Abs(v - lin)
		}
		count++
	}
	if count > 0 && cubErr < linErr {
		return levelCubic
	}
	return levelLinear
}
