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
// DecompressFrom's decode-while-receiving, and the missing half of the
// paper's Equation-1 accounting (the client pays tC *plus* the upload of
// S'; overlapping them shrinks the left-hand side).
//
// CompressSections is the one encoder behind every compress entry point:
// Compress appends the emitted sections to one in-memory buffer (the two
// paths are bit-identical by construction), CompressTo writes them to an
// io.Writer, and wire.Writer.WriteSection maps them 1:1 onto transport
// frames so a sender never materializes the whole stream.

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/ebcl"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// SectionKind identifies one unit of the incremental encoder's output. The
// concatenation of all emitted payloads, in emission order, is exactly the
// serialized FedSZ stream.
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
	recycled0 := sched.RecycledBytes()
	stats := &Stats{RawBytes: sd.SizeBytes()}
	// A reference switches the stream to the v3 cross-round delta format;
	// without one the emitted bytes are exactly the v2 stream of before.
	deltaStream := o.Reference != nil

	entries := sd.Entries()
	flags := make([]byte, len(entries))
	rest := tensor.NewStateDict()
	type lossyMeta struct {
		name   string
		kind   tensor.Kind
		shape  []int
		data   []float32
		chunks int
	}
	var lossyMetas []lossyMeta
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
			lossyMetas = append(lossyMetas, lossyMeta{e.Name, e.Kind, e.Tensor.Shape, e.Tensor.Data, chunks})
			stats.LossyTensors++
			stats.LossyRaw += e.Tensor.SizeBytes()
		} else {
			flags[i] = pathLossless
			rest.Add(e.Name, e.Kind, e.Tensor)
			stats.LosslessTensors++
			stats.LosslessRaw += e.Tensor.SizeBytes()
		}
	}
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
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return err
		}
		stats.CompressedBytes += len(payload)
		return nil
	}

	scratch := sched.GetBytes(256)
	defer func() { sched.PutBytes(scratch) }()

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

	// Fan the blob work out on the pool. done[i] closes when blob i is
	// ready; the emit loop below waits for blobs in stream order while
	// later ones are still compressing. The lossless partition is
	// independent of every tensor, so it compresses concurrently from the
	// start and is emitted last.
	n := len(lossyMetas)
	blobs := make([][]byte, n)
	blobLens := make([]int, n)
	deltaMode := make([]bool, n)
	chunked := make([]bool, n)
	savedBytes := make([]int, n)
	errs := make([]error, n)
	done := make([]chan struct{}, n)
	var encodeWork atomic.Int64
	g := pool.Group()
	submit := func(i int) {
		ch := make(chan struct{})
		done[i] = ch
		g.Go(func() {
			defer close(ch)
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			t0 := time.Now()
			// The worker builds the complete tensor section: metadata, a
			// reserved fixed-width length prefix, then the codec's output
			// appended directly behind it. Backfilling the prefix afterwards
			// means the compressed blob is emitted exactly where
			// CompressAppend wrote it — no blob→scratch memmove per section.
			// The pooled buffer is sized for a ~4x ratio; the emit loop
			// recycles it once the section is written.
			m := lossyMetas[i]
			buf := sched.GetBytes(len(m.data) + 64)
			buf = appendString(buf[:0], m.name)
			buf = append(buf, byte(m.kind), byte(len(m.shape)))
			for _, d := range m.shape {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
			}
			modePos := -1
			if modeBytes {
				// v3/v4 sections carry a mode byte ahead of the length
				// prefix; it starts absolute and is flipped only when the
				// residual encoding wins below.
				modePos = len(buf)
				buf = append(buf, sectionAbsolute)
			}
			lenPos := len(buf)
			buf = ebcl.ReserveSectionLen(buf)

			var section []byte
			var err error
			if m.chunks > 1 {
				// Chunked (v4) blob: the chunk jobs fan out on the same
				// pool, sharing the tensor-level budget. A REL bound on
				// non-finite data cannot chunk (ok=false) and falls through
				// to the plain path below, exactly as before chunking.
				var ok bool
				section, ok, err = compressChunkedSection(pool, o, m.name, m.data,
					buf, modePos, lenPos, m.chunks, &deltaMode[i], &savedBytes[i])
				if ok && err == nil {
					chunked[i] = true
				}
			}
			if section == nil && err == nil && deltaStream {
				section = tryDeltaSection(o, m.name, m.data, buf, modePos, lenPos,
					&deltaMode[i], &savedBytes[i])
			}
			if section == nil && err == nil {
				section, err = o.Lossy.CompressAppend(buf, m.data, o.LossyParams)
			}
			if err != nil {
				sched.PutBytes(buf)
				errs[i] = err
			} else {
				blobLens[i] = len(section) - lenPos - ebcl.SectionLenBytes
				ebcl.PatchSectionLen(section, lenPos, uint64(blobLens[i]))
				blobs[i] = section
			}
			encodeWork.Add(int64(time.Since(t0)))
		})
	}
	var restBlob []byte
	var restErr error
	restDone := make(chan struct{})
	g.Go(func() {
		defer close(restDone)
		if err := ctx.Err(); err != nil {
			restErr = err
			return
		}
		t0 := time.Now()
		restRaw := rest.MarshalAppend(sched.GetBytes(rest.MarshalSize()))
		restBlob, restErr = o.Lossless.Compress(restRaw)
		sched.PutBytes(restRaw)
		encodeWork.Add(int64(time.Since(t0)))
	})

	// abort drains in-flight work and recycles any blobs the emit loop has
	// not consumed, so a cancelled or failed encode leaks neither pool
	// slots nor buffers.
	abort := func() {
		g.Wait()
		for i := range blobs {
			if blobs[i] != nil {
				sched.PutBytes(blobs[i])
				blobs[i] = nil
			}
		}
		if restBlob != nil {
			sched.PutBytes(restBlob)
		}
	}
	finish := func() (*Stats, error) {
		stats.EncodeWork = time.Duration(encodeWork.Load())
		stats.CompressTime = time.Since(start)
		stats.BytesRecycled = sched.RecycledBytes() - recycled0
		stageFor(o.Lossy.Name()).encode.Observe(stats.CompressTime.Seconds())
		return stats, nil
	}

	// Keep a bounded window of blob tasks in flight ahead of the emit
	// cursor: enough to saturate the pool, small enough that a slow writer
	// cannot force the whole compressed stream to buffer in memory.
	window := pool.Parallelism() + 1
	submitted := 0
	for submitted < n && submitted < window {
		submit(submitted)
		submitted++
	}
	for i := 0; i < n; i++ {
		select {
		case <-done[i]:
		case <-ctx.Done():
			abort()
			return nil, ctx.Err()
		}
		if err := errs[i]; err != nil {
			abort()
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, fmt.Errorf("core: lossy compress %q: %w", lossyMetas[i].name, err)
		}
		stats.LossyCompressed += blobLens[i]
		if chunked[i] {
			stats.ChunkedTensors++
		}
		if deltaStream {
			dm := deltaMetrics()
			if deltaMode[i] {
				stats.DeltaTensors++
				stats.DeltaBytesSaved += savedBytes[i]
				dm.deltaSec.Inc()
				dm.bytesSaved.Add(uint64(savedBytes[i]))
			} else {
				dm.absoluteSec.Inc()
			}
		}
		if err := emitSection(SectionTensor, blobs[i]); err != nil {
			abort()
			return nil, err
		}
		sched.PutBytes(blobs[i])
		blobs[i] = nil
		if submitted < n {
			submit(submitted)
			submitted++
		}
	}

	select {
	case <-restDone:
	case <-ctx.Done():
		abort()
		return nil, ctx.Err()
	}
	if restErr != nil {
		abort()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("core: lossless compress: %w", restErr)
	}
	stats.LosslessCompressed = len(restBlob)
	scratch = ebcl.AppendSection(scratch[:0], restBlob)
	sched.PutBytes(restBlob)
	restBlob = nil
	if err := emitSection(SectionLossless, scratch); err != nil {
		abort()
		return nil, err
	}
	g.Wait()
	return finish()
}

// CompressTo streams the FedSZ encode of sd straight into w, drawing blob
// parallelism from the given pool (nil runs serially): the header and each
// finished tensor section are written while later tensors are still
// compressing, so on a socket the upload overlaps the encode. The bytes
// written are identical to Compress(sd, opts). Stats.WriteWait reports the
// time spent blocked in w.Write; Stats.EncodeOverlapRatio reports how much
// compress work the writes hid.
func CompressTo(ctx context.Context, pool *sched.Pool, w io.Writer, sd *tensor.StateDict, opts Options) (*Stats, error) {
	return CompressSections(ctx, pool, sd, opts, func(_ SectionKind, payload []byte) error {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("core: compress write: %w", err)
		}
		return nil
	})
}
