// Package sz2 is a pure-Go reimplementation of the SZ2 error-bounded lossy
// compressor (Liang et al., IEEE Big Data 2018) specialized for the 1-D
// float32 arrays FedSZ produces by flattening model weight tensors.
//
// Pipeline (mirroring the C library's design):
//
//  1. Split the array into fixed-size blocks.
//  2. Per block, choose between a 1-D Lorenzo predictor (previous
//     reconstructed value), the block's fitted line and the zero line,
//     whichever is estimated to code in fewer bits, the fitted line's two
//     coefficients included (SZ2's hybrid design). Only a fitted line stores
//     coefficients; the three block kinds are written as runs.
//  3. Quantize prediction residuals into 2·eb-wide bins; residuals outside
//     the code range become escape-coded IEEE-754 literals.
//  4. Entropy-code the quantization codes with canonical Huffman.
//  5. Run the concatenated payload through an LZ+Huffman lossless stage
//     (standing in for SZ2's Zstd stage), only when the code blob leaves
//     room (under 2 bits an element), and keep it when smaller.
//
// Steps 1–3 are this package; 4 and 5, and the stream frame around them, are
// the back end SZ2 shares with SZ3 (ebcl.Format, ebcl.Sections).
//
// Decompression reverses the stages; Lorenzo predictions use previously
// *reconstructed* values so encoder and decoder stay in lockstep.
package sz2

import (
	"math"
	"time"

	"repro/internal/ebcl"
	"repro/internal/lanes"
	"repro/internal/sched"
)

const (
	// blockSize is the per-block predictor-selection granularity; it is
	// pinned to the shared constant so the core pipeline's chunk-aligned
	// (v4) splits land exactly on block boundaries and per-block predictor
	// decisions are unchanged by chunking.
	blockSize = ebcl.PredictorBlockElems

	// fullBlockCharge is a full block's fitted-line charge, 2^(64/256): a
	// per-block math.Exp2 costs a visible share of the encode.
	fullBlockCharge = 1.189207115002721

	// sampleStride: in a blob ebcl.Sampled admits, chooseBlockPredictor
	// scores one quad in sampleStride.
	sampleStride = 4

	predLorenzo    = 0
	predRegression = 1 // the fitted line, two coefficients
	predZero       = 2 // the zero line: a regression block with a = b = 0, no coefficients
)

// format is SZ2's stream: magic "SZ\0\2", the block kinds as runs, two
// coefficients per fitted-line block. LayoutFull streams (one kind byte a
// block, Lorenzo or regression) predate the zero-line kind and still decode.
var format = ebcl.Format{Magic: 0x535A0002, Name: "sz2", Coeffs: true, KindRuns: true,
	Timers: ebcl.NewStageTimers()}

// Compressor implements ebcl.Compressor. The zero value is ready to use;
// NewCompressor exists for symmetry with the other EBLC packages.
type Compressor struct{}

// NewCompressor returns an SZ2 compressor with default settings.
func NewCompressor() *Compressor { return &Compressor{} }

// Name implements ebcl.Compressor.
func (c *Compressor) Name() string { return "sz2" }

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
// to dst. The scratch filled here (quantization codes, block predictor
// kinds, regression coefficients, escape literals) comes from the sched
// pools and is handed to the shared back end, which returns it.
func (c *Compressor) CompressAppend(dst []byte, data []float32, p ebcl.Params) ([]byte, error) {
	start := time.Now()
	ebAbs, out, done, err := format.Begin(dst, data, p)
	if done || err != nil {
		return out, err
	}

	q := ebcl.NewQuantizer(ebAbs)
	nBlocks := (len(data) + blockSize - 1) / blockSize
	predKinds := sched.GetBytes(nBlocks)[:nBlocks]
	coeffs := sched.GetFloats(2 * nBlocks)
	codes := sched.GetUint16s(len(data))[:len(data)]
	literals := sched.GetFloats(len(data) / 64)

	prevRecon := 0.0 // Lorenzo state: last reconstructed value
	tally := ebcl.Tally{Span: ebcl.NoCodes}
	// On the Go loops each block is widened to float64 once: converting inside
	// the quantize loop serialises it, as Go emits CVTSS2SD without a zeroing
	// XORPS and the conversion waits on the register's last value, the
	// previous recon. The AVX2 kernels widen in the register, so with them
	// only Lorenzo blocks are widened.
	var wide [blockSize]float64
	stride := 1
	if ebcl.Sampled(len(data)) {
		stride = sampleStride
	}
	for b := 0; b < nBlocks; b++ {
		lo := b * blockSize
		hi := min(lo+blockSize, len(data))
		block := data[lo:hi]
		f := wide[:0]
		if !lanes.On() {
			f = widen(wide[:len(block)], block)
		}
		kind, a, bb := chooseBlockPredictor(block, f, prevRecon, stride)
		predKinds[b] = kind
		if kind == predRegression {
			coeffs = append(coeffs, a, bb)
		}
		if kind != predLorenzo {
			literals, prevRecon, tally = q.QuantizeLinear(codes[lo:hi], block, f, float64(a), float64(bb), literals, tally)
			continue
		}
		if len(f) == 0 {
			f = widen(wide[:len(block)], block)
		}
		// Lorenzo: inherently serial — every prediction is the previous
		// reconstruction.
		for i, v := range f {
			code, recon, ok := q.Quantize(v, prevRecon)
			if !ok {
				codes[lo+i] = ebcl.EscapeCode
				literals = append(literals, block[i])
				prevRecon = v
				continue
			}
			codes[lo+i] = uint16(code)
			prevRecon = float64(recon)
			tally = tally.With(uint16(code), v-prevRecon)
		}
	}

	return format.Finish(dst, start, ebAbs, p, predKinds, coeffs, codes, tally, literals)
}

// DecompressInto is DecompressFinite without the verdict.
func (c *Compressor) DecompressInto(dst []float32, stream []byte) ([]float32, error) {
	out, _, err := c.DecompressFinite(dst, stream)
	return out, err
}

// DecompressFinite implements ebcl.Compressor, reconstructing into dst's
// storage and returning the largest magnitude of every value it wrote.
// Coefficients and literals are read in place (no materialized copies).
func (c *Compressor) DecompressFinite(dst []float32, stream []byte) ([]float32, lanes.AbsMax, error) {
	var sec ebcl.Sections
	out, full, err := sec.Open(format, dst, stream)
	if !full {
		return out, ebcl.Filled(out), err
	}
	defer sec.Close()
	n, codes, coeffs := len(out), sec.Codes, sec.Coeffs
	nBlocks := (n + blockSize - 1) / blockSize
	maxKind := byte(predRegression) // a LayoutFull stream predates the zero line
	if sec.Runs {
		maxKind = predZero
	}

	q := ebcl.NewQuantizer(sec.EbAbs)
	prevRecon := 0.0
	coefIdx := 0
	var kind byte
	var m lanes.AbsMax
	for b, run := 0, 0; b < nBlocks; b, run = b+1, run-1 {
		if run == 0 {
			var ok bool
			if kind, run, ok = sec.NextKinds(nBlocks - b); !ok || kind > maxKind {
				return nil, 0, ebcl.ErrCorrupt
			}
		}
		lo := b * blockSize
		hi := min(lo+blockSize, n)
		var a, bb float32
		if kind == predRegression {
			if coefIdx+2 > coeffs.Len() {
				return nil, 0, ebcl.ErrCorrupt
			}
			a, bb = coeffs.At(coefIdx), coeffs.At(coefIdx+1)
			coefIdx += 2
		}
		if kind != predLorenzo {
			m = max(m, q.DequantizeLinear(out[lo:hi], codes[lo:hi], float64(a), float64(bb), &sec))
			prevRecon = float64(out[hi-1])
			continue
		}
		for i := lo; i < hi; i++ {
			code := codes[i]
			if code == ebcl.EscapeCode {
				out[i] = sec.NextLiteral()
			} else {
				out[i] = q.Dequantize(int(code), prevRecon)
			}
			m = m.With(out[i])
			prevRecon = float64(out[i])
		}
	}
	if len(sec.Kinds) != 0 || coefIdx != coeffs.Len() || !sec.LiteralsConsumed() {
		return nil, 0, ebcl.ErrCorrupt
	}
	return out, m, nil
}

// widen fills f with block's values as float64 and returns it.
func widen(f []float64, block []float32) []float64 {
	for i, v := range block {
		f[i] = float64(v)
	}
	return f
}

// chooseBlockPredictor picks the predictor whose residuals are estimated to
// code in the fewest bits, as SZ2's hybrid selection does. f is the block
// widened to float64, which only the Go loops read: with AVX2 the kernels
// read block and f may be empty.
//
// A block's code bits grow as n·log2 of its mean absolute residual, so a
// candidate is scored by its L1 error, and the fitted line's 64 bits of
// coefficients multiply its error by 2^(64/n). The zero line (predZero, a
// regression block with a = b = 0) writes no coefficients, only its share of
// a kind run, so it is charged nothing. Lorenzo keeps a tie, as the zero line
// does against the fitted line. The line is fitted to every element; the
// scores cover every stride-th quad (scoreBlock), all of them at stride 1.
// SZ2 itself scores a sample (Liang et al. 2018): the encoder passes
// sampleStride for a blob ebcl.Sampled admits.
func chooseBlockPredictor(block []float32, f []float64, prev float64, stride int) (kind byte, a, b float32) {
	if len(block) < 8 {
		return predLorenzo, 0, 0
	}
	var af, bf, lorenzoErr, regErr, zeroErr float64
	if lanes.On() {
		af, bf, lorenzoErr, regErr, zeroErr = scoreBlockLanes(block, prev, stride)
	} else {
		af, bf, lorenzoErr, regErr, zeroErr = scoreBlock(f, prev, stride)
	}
	charge := fullBlockCharge
	if len(block) != blockSize {
		charge = math.Exp2(64 / float64(len(block)))
	}
	kind, best := byte(predLorenzo), lorenzoErr
	if zeroErr+1e-12 < best {
		kind, best = predZero, zeroErr
	}
	if fit := regErr * charge; fit+1e-12 < best {
		return predRegression, float32(af), float32(bf)
	}
	return kind, 0, 0
}

// scoreBlock fits the block's line a·i + b and scores the three predictors
// by their L1 error: Lorenzo, the fitted line and the zero line. Lorenzo
// error is approximated on original values (the reconstructed stream differs
// by at most ebAbs per point, which does not change the ranking materially).
// The scores cover the quads at 0, 4·stride, 8·stride, …; at stride 1 they
// cover the tail past the last quad too, so every element.
func scoreBlock(block []float64, prev float64, stride int) (af, bf, lorenzoErr, regErr, zeroErr float64) {
	af, bf = fitLine(block)
	// Four independent partial sums per metric: the Lorenzo term only needs
	// the previous *original* value (not an accumulator chain), so the whole
	// scoring pass is data-parallel and runs 4-wide.
	var l, r, z [4]float64
	n4 := len(block) &^ 3
	for i := 0; i < n4; i += 4 * stride {
		p := prev
		if i > 0 {
			p = block[i-1]
		}
		for j, fv := range block[i : i+4] {
			l[j] += math.Abs(fv - p)
			r[j] += math.Abs(fv - (af*float64(i+j) + bf))
			z[j] += math.Abs(fv)
			p = fv
		}
	}
	lorenzoErr = l[0] + l[1] + l[2] + l[3]
	regErr = r[0] + r[1] + r[2] + r[3]
	zeroErr = z[0] + z[1] + z[2] + z[3]
	if stride != 1 {
		return af, bf, lorenzoErr, regErr, zeroErr
	}
	for i := n4; i < len(block); i++ {
		fv := block[i]
		lorenzoErr += math.Abs(fv - block[i-1])
		regErr += math.Abs(fv - (af*float64(i) + bf))
		zeroErr += math.Abs(fv)
	}
	return af, bf, lorenzoErr, regErr, zeroErr
}

// fitLine computes the least-squares line v ≈ a·i + b over block indices.
// The x moments are closed-form over 0..n-1 (exact in float64 for any block
// this codec sees); only the data moments sy and sxy need a pass, which runs
// 4-wide with independent partial sums.
func fitLine(block []float64) (a, b float64) {
	m := len(block)
	var y0, y1, y2, y3, xy0, xy1, xy2, xy3 float64
	i := 0
	for ; i+4 <= m; i += 4 {
		f0, f1, f2, f3 := block[i], block[i+1], block[i+2], block[i+3]
		y0 += f0
		y1 += f1
		y2 += f2
		y3 += f3
		xy0 += float64(i) * f0
		xy1 += float64(i+1) * f1
		xy2 += float64(i+2) * f2
		xy3 += float64(i+3) * f3
	}
	sy := y0 + y1 + y2 + y3
	sxy := xy0 + xy1 + xy2 + xy3
	for ; i < m; i++ {
		y := block[i]
		sy += y
		sxy += float64(i) * y
	}
	return solveLine(m, sy, sxy)
}

// solveLine is the least-squares line over indices 0..m-1 from the data
// moments sy = Σ v and sxy = Σ i·v.
func solveLine(m int, sy, sxy float64) (a, b float64) {
	n := float64(m)
	sx := n * (n - 1) / 2
	sxx := n * (n - 1) * (2*n - 1) / 6
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n
	}
	a = (n*sxy - sx*sy) / den
	b = (sy - a*sx) / n
	return a, b
}
