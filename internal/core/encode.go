package core

// Incremental encode: the section-emitting counterpart of stream.go's
// section-consuming decode.
//
// A FedSZ stream is sequential — header, per-tensor sections, one
// lossless-partition section — so it can be *produced* incrementally too:
// the encoder emits the header immediately, then each tensor section as
// its blob finishes compressing, while later tensors are still compressing
// on the shared worker pool. On a socket that means the upload of tensor i
// overlaps the compression of tensor i+1 — the client-side mirror of
// DecodeSections' decode-while-receiving, and the missing half of the
// paper's Equation-1 accounting (the client pays tC *plus* the upload of
// S'; overlapping them shrinks the left-hand side).
//
// CompressSections is the one encoder behind every compress entry point:
// Compress appends the emitted sections to one in-memory buffer, and
// wire.EncodeStream maps them 1:1 onto transport frames
// (wire.Writer.WriteSection), so a sender never materializes the whole
// stream; the two payloads are bit-identical by construction.
//
// Everything after the header is one array of section records — the lossy
// tensors in stream order, then the metadata partition — each filled by one
// pool task and emitted through one wait / error / abort path. A tensor's
// blob is decided in one function, encodeBlob: constant residual, plain,
// chunked (chunk.go), cross-round residual (delta.go) or chunked residual,
// under one keep-the-smaller policy.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/ebcl"
	"repro/internal/lanes"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// SectionKind identifies one unit of the incremental encoder's output. The
// concatenation of all emitted payloads, in emission order, is exactly the
// serialized FedSZ stream. A kind's value is also the kind byte of the wire
// frame that carries the section (internal/wire).
type SectionKind uint8

const (
	// SectionHeader is the stream preamble: magic, version, compressor
	// names, entry count, and path flags. Emitted first, exactly once.
	SectionHeader SectionKind = iota + 1
	// SectionTensor is one lossy tensor: name, kind, shape, and the
	// length-prefixed compressed blob. Emitted in state-dict order.
	SectionTensor
	// SectionLossless is the length-prefixed lossless-partition section.
	// Emitted last, exactly once.
	SectionLossless
)

// CompressSections runs the FedSZ pipeline over sd, emitting the stream
// incrementally: emit is called once with the header, once per lossy
// tensor in stream order as each blob finishes compressing, and once with
// the lossless section. Tensor blobs compress concurrently on pool (nil
// runs serially) while earlier sections are being emitted, with at most
// pool.Parallelism()+1 finished sections buffered ahead of the emit cursor
// — peak memory is O(parallelism × tensor), never O(stream).
//
// emit owns payload only for the duration of the call (the buffer is
// reused); an emit error aborts the encode and is returned verbatim.
// Cancelling ctx stops the encode at the next section boundary and makes
// in-flight workers exit before starting their blob; the context's error
// is returned.
func CompressSections(ctx context.Context, pool *sched.Pool, sd *tensor.StateDict, opts Options, emit func(SectionKind, []byte) error) (*Stats, error) {
	o := opts.withDefaults()
	start := time.Now()
	stats := &Stats{RawBytes: sd.SizeBytes()}
	// A reference switches the stream to the v3 cross-round delta format;
	// without one the emitted bytes are exactly the v2 stream of before.
	deltaStream := o.Reference != nil

	entries := sd.Entries()
	flags := make([]byte, len(entries))
	rest := tensor.NewStateDict()
	secs := make([]section, 0, len(entries)+1)
	// Any tensor big enough to chunk switches the whole stream to v4. The
	// decision is derived from element counts and Options alone — never
	// from pool parallelism — so the emitted bytes are reproducible; when
	// nothing chunks the stream stays bit-identical to v2/v3.
	chunkTarget := chunkElemsOf(o)
	chunkedStream := false
	for i, e := range entries {
		if takesLossyPath(e, o) {
			flags[i] = pathLossy
			chunks := chunkCount(e.Tensor.NumElems(), chunkTarget)
			if chunks > 1 {
				chunkedStream = true
			}
			secs = append(secs, section{name: e.Name, kind: e.Kind, shape: e.Tensor.Shape, data: e.Tensor.Data, chunks: chunks})
			stats.LossyTensors++
			stats.LossyRaw += e.Tensor.SizeBytes()
		} else {
			flags[i] = pathLossless
			rest.Add(e.Name, e.Kind, e.Tensor)
			stats.LosslessTensors++
			stats.LosslessRaw += e.Tensor.SizeBytes()
		}
	}
	// The metadata partition is the last record: independent of every
	// tensor, so it is submitted first and compresses concurrently from the
	// start, and emitted last.
	n := len(secs)
	secs = append(secs, section{})
	// v4 sections always carry a mode byte, and the v4 header always
	// carries the reference epoch (0 without a reference) — the v3 layout
	// with chunked blobs allowed.
	modeBytes := deltaStream || chunkedStream

	emitSection := func(kind SectionKind, payload []byte) error {
		t0 := time.Now()
		err := emit(kind, payload)
		stats.WriteWait += time.Since(t0)
		if err != nil {
			// A cancelled context usually kills the writer too (deadline
			// cut, closed socket); report the cancellation, not the wreck
			// it caused downstream.
			return ctxFirst(ctx, err)
		}
		stats.CompressedBytes += len(payload)
		return nil
	}

	scratch := sched.GetBytes(256)
	defer func() { sched.PutBytes(scratch) }()
	bytes := stageFor(o.Lossy).bytes

	// Header first: a receiver can begin parsing before any blob exists.
	scratch = binary.LittleEndian.AppendUint32(scratch[:0], streamMagic)
	switch {
	case chunkedStream:
		scratch = append(scratch, streamVersionV4)
	case deltaStream:
		scratch = append(scratch, streamVersionV3)
	default:
		scratch = append(scratch, streamVersion)
	}
	scratch = appendString(scratch, o.Lossy.Name())
	scratch = appendString(scratch, o.Lossless.Name())
	if modeBytes {
		// RefEpoch is documented as ignored without a reference, so a v4
		// absolute stream pins the field to 0 rather than leaking it.
		epoch := uint32(0)
		if deltaStream {
			epoch = o.RefEpoch
		}
		scratch = binary.LittleEndian.AppendUint32(scratch, epoch)
	}
	scratch = binary.LittleEndian.AppendUint32(scratch, uint32(len(entries)))
	scratch = append(scratch, flags...)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := emitSection(SectionHeader, scratch); err != nil {
		return nil, err
	}
	bytes.Add(ebcl.PartHeader, len(scratch))

	// Fan the section work out on the pool. A record's done channel closes
	// when its section is ready; the emit loop below waits for sections in
	// stream order while later ones are still compressing.
	var encodeWork atomic.Int64
	g := pool.Group()
	submit := func(i int) {
		s := &secs[i]
		s.done = make(chan struct{})
		g.Go(func() {
			defer close(s.done)
			if s.err = ctx.Err(); s.err != nil {
				return
			}
			t0 := time.Now()
			if i == n {
				s.encodeRest(o, rest)
			} else {
				s.encodeTensor(pool, o, modeBytes)
			}
			encodeWork.Add(int64(time.Since(t0)))
		})
	}
	// abort drains in-flight work and recycles any sections the emit loop
	// has not consumed, so a cancelled or failed encode leaks neither pool
	// slots nor buffers.
	abort := func(err error) (*Stats, error) {
		g.Wait()
		for i := range secs {
			sched.PutBytes(secs[i].out)
		}
		return nil, err
	}

	// Keep a bounded window of tensor tasks in flight ahead of the emit
	// cursor: enough to saturate the pool, small enough that a slow writer
	// cannot force the whole compressed stream to buffer in memory.
	submit(n)
	submitted := 0
	for window := pool.Parallelism() + 1; submitted < n && submitted < window; submitted++ {
		submit(submitted)
	}
	for i := range secs {
		s := &secs[i]
		select {
		case <-s.done:
		case <-ctx.Done():
			return abort(ctx.Err())
		}
		if s.err != nil {
			return abort(ctxFirst(ctx, s.err))
		}
		kind := SectionTensor
		if i == n {
			kind = SectionLossless
			stats.LosslessCompressed = s.blobLen
		} else {
			stats.LossyCompressed += s.blobLen
			if s.chunked {
				stats.ChunkedTensors++
			}
			if deltaStream {
				switch {
				case s.constant:
					stats.DeltaTensors++
					stats.ConstantResiduals++
					constantSections.Inc()
				case s.delta:
					stats.DeltaTensors++
					stats.DeltaBytesSaved += s.saved
					deltaSections.Inc()
					deltaBytesSaved.Add(uint64(s.saved))
				default:
					absoluteSections.Inc()
				}
			}
		}
		if err := emitSection(kind, s.out); err != nil {
			return abort(err)
		}
		s.count(bytes, o.Lossy)
		sched.PutBytes(s.out)
		s.out = nil
		if submitted < n {
			submit(submitted)
			submitted++
		}
	}
	g.Wait()
	stats.EncodeWork = time.Duration(encodeWork.Load())
	stats.CompressTime = time.Since(start)
	stageFor(o.Lossy).encode.Observe(stats.CompressTime.Seconds())
	return stats, nil
}

// section is one unit of CompressSections' fanned-out work: a lossy tensor
// (the inputs name..chunks are set) or, as the last record, the metadata
// partition. The worker fills the result fields and closes done.
type section struct {
	name   string
	kind   tensor.Kind
	shape  []int
	data   []float32
	chunks int

	done     chan struct{}
	out      []byte     // the finished, length-prefixed section (pooled)
	blobLen  int        // its compressed blob, without metadata and prefix
	chunked  bool       // the blob uses the chunked (v4) layout
	delta    bool       // the blob encodes data − reference
	constant bool       // that residual is one constant stream (constantResidual)
	saved    int        // bytes the residual saved over the absolute candidate
	held     *ebcl.Held // the observations of the codec blob that ships
	err      error
}

// count adds the emitted section's bytes to b by the parts this package
// writes: the metadata and length prefix, a chunked blob's framing, a
// constant residual's stream and the metadata partition. A codec blob's
// parts are counted by a codec with the SZ back end, whose observations of
// it encodeBlob held and this records, and whole under codes for any other
// codec.
func (s *section) count(b *ebcl.ByteCounters, lossy ebcl.Compressor) {
	b.Add(ebcl.PartHeader, len(s.out)-s.blobLen)
	switch {
	case s.chunks == 0: // the metadata partition
		b.Add(ebcl.PartPartition, s.blobLen)
		return
	case s.constant:
		b.Add(ebcl.PartHeader, s.blobLen)
		return
	}
	frame := 0
	if s.chunked { // the marker, the one-byte count (MaxChunks < 128), the jump table
		frame = 2 + 4*s.chunks
	}
	b.Add(ebcl.PartJump, frame)
	t := lossy.StageTimers()
	if t == nil {
		b.Add(ebcl.PartCodes, s.blobLen-frame)
	}
	if s.held != nil {
		s.held.Record(t)
	}
}

// encodeRest marshals and compresses the metadata partition.
func (s *section) encodeRest(o Options, rest *tensor.StateDict) {
	raw := rest.MarshalAppend(sched.GetBytes(rest.MarshalSize()))
	blob, err := o.Lossless.Compress(raw)
	sched.PutBytes(raw)
	if err != nil {
		s.err = fmt.Errorf("core: lossless compress: %w", err)
		return
	}
	s.blobLen = len(blob)
	s.out = ebcl.AppendSection(sched.GetBytes(len(blob)+ebcl.SectionLenBytes), blob)
	sched.PutBytes(blob)
}

// encodeTensor builds the complete tensor section: metadata, a reserved
// fixed-width length prefix, then the codec's output appended directly
// behind it. Backfilling the prefix afterwards means the compressed blob is
// emitted exactly where CompressAppend wrote it — no blob→scratch memmove
// per section. The pooled buffer is sized for a ~4x ratio; the emit loop
// recycles it once the section is written.
func (s *section) encodeTensor(pool *sched.Pool, o Options, modeBytes bool) {
	buf := sched.GetBytes(len(s.data) + 64)
	buf = appendString(buf[:0], s.name)
	buf = append(buf, byte(s.kind), byte(len(s.shape)))
	for _, d := range s.shape {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	modePos := -1
	if modeBytes {
		// v3/v4 sections carry a mode byte ahead of the length prefix; it
		// starts absolute and encodeBlob flips it when the residual wins.
		modePos = len(buf)
		buf = append(buf, sectionAbsolute)
	}
	lenPos := len(buf)
	buf = ebcl.ReserveSectionLen(buf)
	out, err := s.encodeBlob(pool, o, buf, modePos, lenPos)
	if err != nil {
		sched.PutBytes(buf)
		s.err = fmt.Errorf("core: lossy compress %q: %w", s.name, err)
		return
	}
	s.blobLen = len(out) - lenPos - ebcl.SectionLenBytes
	ebcl.PatchSectionLen(out, lenPos, uint64(s.blobLen))
	s.out = out
}

// encodeBlob appends the tensor's compressed blob to buf (which holds the
// section prefix: metadata, an absolute mode byte at modePos when the
// stream has mode bytes, and the reserved length prefix at lenPos) and
// returns the unpatched section. It is the one place a blob's shape is
// decided — constant residual, plain, chunked, residual, or chunked residual:
//
//   - A residual is a candidate when the reference holds a same-named,
//     same-sized tensor, the bound is not PREC (nothing to carry over), the
//     residual is finite and strictly tighter than the data, and the bound
//     survives the float32 rounding allowance that comes off the residual's
//     bound alone (residualBound).
//   - A candidate whose residual spans at most twice that shrunk bound ships
//     as the codec's 13-byte constant stream of its midpoint once every
//     element's reconstruction passes constantResidual: no codec call and no
//     sample, one plain blob even where the tensor would chunk, and nothing
//     added to DeltaBytesSaved.
//   - Otherwise, up to sampleMinElems, both encodings are produced and the
//     smaller is kept: the section is never larger than the absolute one and
//     DeltaBytesSaved is exact. Above it only the candidate whose sample
//     (sampleSizes) encodes smaller is produced, ties to the residual: ~1.25
//     encodes, not 2, the kept blob within 1 % of the smaller one
//     (TestSampledPolicyAccuracy), DeltaBytesSaved estimated from the sample.
//     A codec error on a candidate or a sample keeps the other candidate; only
//     an absolute-side error with no residual to fall back on fails the tensor.
//   - The chunk count only selects the blob writer: chunks > 1 frames
//     block-aligned sub-blobs behind a jump table (appendChunkedBlob), else
//     the codec writes one stream.
//   - Chunks and residuals need an absolute bound, resolved once against the
//     original tensor (absParams). A tensor whose bound cannot be resolved
//     (REL on non-finite data) does neither and takes the plain path.
func (s *section) encodeBlob(pool *sched.Pool, o Options, buf []byte, modePos, lenPos int) ([]byte, error) {
	// The residual is formed before the bound is resolved: the pass that
	// fills it also finds the value range a REL bound resolves against.
	var res, ref []float32
	var resExt lanes.Extent
	rangeD, mag, finite := 0.0, 0.0, false
	if m := o.LossyParams.Mode; o.Reference != nil && (m == ebcl.ModeRelative || m == ebcl.ModeAbsolute) {
		if rt := o.Reference.Get(s.name); rt != nil && rt.NumElems() == len(s.data) {
			res, ref = sched.GetFloats(len(s.data))[:len(s.data)], rt.Data
			defer sched.PutFloats(res)
			rangeD, resExt, mag, finite = computeResidual(res, s.data, ref)
		}
	}
	// The unchunked absolute candidate keeps the caller's params verbatim (the
	// codec resolves REL itself, as it always has); chunked and residual
	// candidates get the bound resolved against the whole original tensor
	// (wholeP), the residual's shrunk by its rounding allowance.
	absP, wholeP := o.LossyParams, o.LossyParams
	resolved := false
	if s.chunks > 1 || res != nil {
		wholeP, resolved = absParams(s.data, o.LossyParams, rangeD, finite)
	}
	s.chunked = s.chunks > 1 && resolved
	if s.chunked {
		absP = wholeP
	}
	// Every codec encode holds its observations in a Held of its own, and
	// keep takes the Held of the blob that ships: count records only that
	// one, so an encode that fails partway or loses is never observed.
	write := func(dst []byte, vals []float32, p ebcl.Params) ([]byte, *ebcl.Held, error) {
		h := new(ebcl.Held)
		p = ebcl.Hold(p, h)
		var out []byte
		var err error
		if s.chunked {
			out, err = appendChunkedBlob(pool, o.Lossy, dst, vals, p, s.chunks)
		} else {
			out, err = o.Lossy.CompressAppend(dst, vals, p)
		}
		return out, h, err
	}
	keep := func(out []byte, h *ebcl.Held, err error) ([]byte, error) {
		if err == nil {
			s.held = h
		}
		return out, err
	}

	rangeR := resExt.Span()
	ebRes, fits := residualBound(wholeP.Value, mag)
	if !finite || !resolved || rangeR >= rangeD || !fits {
		// No residual or bound for it, one no tighter than the data (cold
		// reference, diverged client), or values so large that float32
		// rounding eats the bound: absolute only, without a second encode.
		return keep(write(buf, s.data, absP))
	}
	if rangeR <= 2*ebRes {
		if mid, ok := constantResidual(s.data, ref, resExt, mag, wholeP.Value); ok {
			out := ebcl.AppendConstant(buf, o.Lossy.Magic(), len(s.data), mid)
			out[modePos] = sectionDelta
			s.delta, s.constant, s.chunked = true, true, false
			return out, nil
		}
	}
	resP := ebcl.Abs(ebRes)
	est := -1 // the absolute candidate's estimated size, when its sample stood in for it
	if len(s.data) > sampleMinElems {
		// The bound resolved, so both candidates are chunked iff s.chunks > 1.
		if a, r, ok := sampleSizes(o.Lossy, buf, s.data, res, wholeP, resP, s.chunks); ok && a >= r {
			est = a
		} else if ok {
			if out, err := keep(write(buf, s.data, absP)); err == nil {
				return out, nil
			}
		}
	}
	out, resHeld, err := write(buf, res, resP)
	if err != nil {
		// Only the absolute encodes (or reproduces the error the caller would
		// have seen without a reference).
		return keep(write(buf, s.data, absP))
	}
	s.held = resHeld
	deltaLen := len(out) - lenPos - ebcl.SectionLenBytes
	if est >= 0 {
		s.saved = max(est-deltaLen, 0)
	} else {
		scratch := sched.GetBytes(len(s.data)/2 + 64)
		absBlob, absHeld, err := write(scratch, s.data, absP)
		if err != nil {
			// Only the residual encodes: it is the section, and says so below.
			sched.PutBytes(scratch)
		} else {
			defer sched.PutBytes(absBlob)
			if len(absBlob) < deltaLen {
				// Absolute wins: overwrite the residual blob in place (capacity is
				// guaranteed — the absolute blob is strictly smaller) and leave
				// the mode byte as it was initialized.
				s.held = absHeld
				return append(out[:lenPos+ebcl.SectionLenBytes], absBlob...), nil
			}
			s.saved = len(absBlob) - deltaLen
		}
	}
	out[modePos] = sectionDelta
	s.delta = true
	return out, nil
}

// A residual candidate above sampleMinElems elements is not encoded both
// ways: sampleRun-element runs every sampleStride (1/8 of the tensor, on the
// predictor-block grid) of each candidate go through the codec and the smaller
// sample names the one to encode. TestSampledPolicyAccuracy justifies the values.
const (
	sampleMinElems = 32 << 10
	sampleRun      = 4 * ebcl.PredictorBlockElems
	sampleStride   = 8 * sampleRun
)

// inlineMaxElems is the tensor size below which DecodeSections decodes on
// the reading goroutine instead of handing the tensor to the pool: there a
// goroutine start, its stack growth, a wakeup and a join cost more than the
// overlap buys. BenchmarkInlineGate fixes the value: with every CPU decoding
// (a loaded server) the handoff costs more at every size up to 64 Ki (+11 %
// at 2 Ki, +1 % at 64 Ki), and for a lone decoder it pays from 4 Ki up
// (−4 % at 4 Ki, −21 % at 16 Ki) but not at 2 Ki (+11 %).
const inlineMaxElems = 4 << 10

// sampleSizes estimates the blob sizes of data under pData and of res under
// pRes when written as chunks blobs. Each one's strided sample and, alone, its
// first run are encoded: the two sizes give a per-element cost and a fixed
// cost (header, tables) that every blob pays once, so the estimate is the
// per-element cost over the tensor plus the fixed cost once per chunk. The
// sample blobs are written behind buf's contents and dropped (the caller's buf
// is untouched); ok is false when either does not encode.
func sampleSizes(lossy ebcl.Compressor, buf []byte, data, res []float32, pData, pRes ebcl.Params, chunks int) (absLen, resLen int, ok bool) {
	sample := sched.GetFloats(len(data)/sampleStride*sampleRun + sampleRun)
	defer sched.PutFloats(sample) // the runs fit its capacity: append never moves it
	var lens [2]int
	params := [2]ebcl.Params{pData, pRes}
	for k, src := range [2][]float32{data, res} {
		sample = sample[:0]
		for lo := 0; lo < len(src); lo += sampleStride {
			sample = append(sample, src[lo:min(lo+sampleRun, len(src))]...)
		}
		run, err := lossy.CompressAppend(buf, sample[:sampleRun], params[k])
		if err != nil {
			return 0, 0, false
		}
		runLen := len(run) - len(buf)
		out, err := lossy.CompressAppend(buf, sample, params[k])
		if err != nil {
			return 0, 0, false
		}
		perElem := float64(len(out)-len(buf)-runLen) / float64(len(sample)-sampleRun)
		fixed := float64(runLen) - perElem*sampleRun
		lens[k] = int(math.Round(fixed*float64(chunks) + perElem*float64(len(src))))
	}
	return lens[0], lens[1], true
}

// absParams resolves the caller's error-control setting to one that means
// the same on any part of the tensor or on its residual: a REL bound becomes
// the ABS bound it implies on the *original* tensor's value range (the
// documented SZ convention; reconstruction is ref + residual' with the
// reference exact at both ends, so |recon − data| is |residual' − residual|
// plus the float32 roundings residualBound allows for). ABS and PREC carry
// over unchanged. rangeData is that range when computeResidual has already
// scanned finite data for it (scanned), else it is found here. ok is false
// when a REL bound cannot be resolved (non-finite data).
func absParams(data []float32, p ebcl.Params, rangeData float64, scanned bool) (ebcl.Params, bool) {
	if p.Mode != ebcl.ModeRelative {
		return p, true
	}
	eb := p.Value * rangeData // the product ResolveAbs forms
	if !scanned {
		var err error
		if eb, err = ebcl.ResolveAbs(data, p); err != nil {
			return p, false
		}
	}
	if eb <= 0 {
		return p, false
	}
	return ebcl.Abs(eb), true
}
