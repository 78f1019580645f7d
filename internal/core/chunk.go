package core

// Intra-tensor chunking: the stream-format v4 layer that converts the
// per-tensor fan-out into wall-clock speedup on skewed state dicts. A real
// model usually has one dominant tensor (the final FC layer); per-tensor
// parallelism serializes on it and multicore hosts idle. v4 splits such a
// tensor into K block-aligned chunks, compresses each as a complete,
// independently decodable codec stream on the shared pool, and frames them
// behind a chunk jump table; decode lands each chunk in its own sub-range
// of the output, one after another inside the tensor's decode task.
//
// Chunked blob layout, inside a tensor section's ordinary length-prefixed
// blob area (all integers little-endian / uvarint as noted):
//
//	[0]      chunkMagic (0xFC)
//	uvarint  chunk count C (2..MaxChunks)
//	[4*C]    per-chunk byte sizes, uint32 LE (the jump table)
//	[...]    C concatenated sub-blobs, each a complete codec stream
//
// The marker byte cannot collide with a plain blob: every registry codec
// stream opens with a 4-byte little-endian magic whose first byte is
// 0x02 (sz2), 0x03 (sz3), 0x58 (szx), or 0x31 (zfp) — never 0xFC (the
// same argument the multi-stream Huffman marker makes one layer down).
// Chunk parsing is additionally gated on the stream version, so v1–v3
// decode semantics are untouched byte for byte.
//
// Chunk boundaries align to the ebcl.PredictorBlockElems grid (SZ2's
// per-block predictor-selection granularity), so splitting never changes
// any block's predictor inputs; encoder and decoder derive the identical
// split from (elems, C) alone. The split — like the decision to chunk at
// all — depends only on element counts and Options, never on pool
// parallelism, so the emitted bytes are reproducible across hosts.
//
// This file holds the format: the split (chunkCount, chunkBounds), the blob
// writer (appendChunkedBlob) and the decoder. encodeBlob (encode.go) picks
// the writer from the chunk count and is otherwise blind to it, so a
// chunked residual is just a chunked blob of the residual.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ebcl"
	"repro/internal/lanes"
	"repro/internal/sched"
)

const (
	// chunkMagic opens every chunked tensor blob. See the collision
	// argument in the package comment above.
	chunkMagic = 0xFC

	// MaxChunks bounds the chunk count a blob may declare. 16 covers any
	// near-term host (chunks beyond the core count only add framing), and
	// the decoder sizes its jump-table scratch from it.
	MaxChunks = 16

	// DefaultChunkElems is the chunking threshold and target chunk size:
	// tensors above it split into ceil(elems/DefaultChunkElems) chunks
	// (capped at MaxChunks). 512 Ki elements ≈ 2 MiB of float32 — big
	// enough that per-chunk Huffman tables and framing are noise, small
	// enough that a 4M-element FC layer spreads across 8 workers.
	DefaultChunkElems = 512 << 10
)

// chunkElemsOf resolves the Options field: 0 selects the default, negative
// disables chunking.
func chunkElemsOf(o Options) int {
	switch {
	case o.ChunkElems == 0:
		return DefaultChunkElems
	case o.ChunkElems < 0:
		return 0
	}
	return o.ChunkElems
}

// chunkCount returns the number of chunks a tensor of elems elements
// splits into under the given target (0 disables), clamped to MaxChunks
// and to the tensor's block count (a chunk must own at least one complete
// block, so tiny tensors never split). 1 means "do not chunk".
func chunkCount(elems, targetElems int) int {
	if targetElems <= 0 || elems <= targetElems {
		return 1
	}
	c := (elems + targetElems - 1) / targetElems
	if c > MaxChunks {
		c = MaxChunks
	}
	if blocks := (elems + ebcl.PredictorBlockElems - 1) / ebcl.PredictorBlockElems; c > blocks {
		c = blocks
	}
	return c
}

// chunkBounds returns the [lo, hi) element range of chunk i of chunks over
// an elems-element tensor. Boundaries fall on the PredictorBlockElems grid
// (the final chunk absorbs the partial trailing block); blocks distribute
// as evenly as possible, with the first blocks%chunks chunks carrying one
// extra block.
func chunkBounds(elems, chunks, i int) (lo, hi int) {
	blocks := (elems + ebcl.PredictorBlockElems - 1) / ebcl.PredictorBlockElems
	base, ext := blocks/chunks, blocks%chunks
	blockAt := func(k int) int {
		return (k*base + min(k, ext)) * ebcl.PredictorBlockElems
	}
	lo = blockAt(i)
	hi = blockAt(i + 1)
	if i == chunks-1 || hi > elems {
		hi = elems
	}
	return lo, hi
}

// isChunkedBlob reports whether blob uses the chunked layout. Callers gate
// this on the stream version: only v4 streams may carry chunked blobs.
func isChunkedBlob(blob []byte) bool {
	return len(blob) > 0 && blob[0] == chunkMagic
}

// appendChunkedBlob compresses data as a chunked blob appended to dst:
// marker, chunk count, jump table, then each chunk's complete codec
// stream. The chunks compress concurrently on pool (nil runs serially)
// into pooled staging buffers and are then concatenated — the memcpy is
// noise next to the compress itself. p must already be chunk-safe (see
// absParams). On error dst is unmodified, so the caller may retry a
// different encoding into the same buffer.
func appendChunkedBlob(pool *sched.Pool, lossy ebcl.Compressor, dst []byte, data []float32, p ebcl.Params, chunks int) ([]byte, error) {
	subs := make([][]byte, chunks)
	errs := make([]error, chunks)
	// Nested caller-runs fan-out: inside an encode worker this shares the
	// tensor-level budget (chunk-grained work items, no new machinery),
	// and the caller-runs discipline keeps the nesting deadlock-free.
	pool.ForEach(chunks, func(i int) {
		lo, hi := chunkBounds(len(data), chunks, i)
		buf := sched.GetBytes((hi-lo)/2 + 64)
		sub, err := lossy.CompressAppend(buf[:0], data[lo:hi], p)
		if err != nil {
			sched.PutBytes(buf)
			errs[i] = err
			return
		}
		subs[i] = sub
	})
	for i, err := range errs {
		if err != nil {
			for _, s := range subs {
				if s != nil {
					sched.PutBytes(s)
				}
			}
			return nil, fmt.Errorf("chunk %d/%d: %w", i, chunks, err)
		}
	}
	dst = append(dst, chunkMagic)
	dst = binary.AppendUvarint(dst, uint64(chunks))
	for _, s := range subs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	}
	for i, s := range subs {
		dst = append(dst, s...)
		sched.PutBytes(s)
		subs[i] = nil
	}
	return dst, nil
}

// parseChunkedBlob validates a chunked blob's framing and returns the
// chunk count plus each chunk's sub-blob as views into blob. The jump
// table must account for the blob exactly — trailing slack would let
// corrupted sizes alias each other undetected (the same invariant the
// multi-stream Huffman jump table enforces).
func parseChunkedBlob(blob []byte, elems int) (subs [][]byte, err error) {
	pos := 1 // past chunkMagic
	c64, k := binary.Uvarint(blob[pos:])
	if k <= 0 {
		return nil, fmt.Errorf("%w: chunk count", ErrCorrupt)
	}
	pos += k
	// Sizes are checked as read, before int conversion, which would wrap
	// them on a 32-bit platform.
	if c64 < 2 || c64 > MaxChunks {
		return nil, fmt.Errorf("%w: chunk count %d outside [2,%d]", ErrCorrupt, c64, MaxChunks)
	}
	chunks := int(c64)
	blocks := (elems + ebcl.PredictorBlockElems - 1) / ebcl.PredictorBlockElems
	if chunks > blocks {
		return nil, fmt.Errorf("%w: %d chunks for %d-element tensor", ErrCorrupt, chunks, elems)
	}
	if pos+4*chunks > len(blob) {
		return nil, fmt.Errorf("%w: chunk jump table truncated", ErrCorrupt)
	}
	subs = make([][]byte, chunks)
	off := pos + 4*chunks
	for i := 0; i < chunks; i++ {
		sz := binary.LittleEndian.Uint32(blob[pos+4*i:])
		if uint64(sz) > uint64(len(blob)-off) {
			return nil, fmt.Errorf("%w: chunk %d size %d overruns blob", ErrCorrupt, i, sz)
		}
		subs[i] = blob[off : off+int(sz)]
		off += int(sz)
	}
	if off != len(blob) {
		return nil, fmt.Errorf("%w: chunk jump table leaves %d trailing bytes", ErrCorrupt, len(blob)-off)
	}
	return subs, nil
}

// decodeBlobInto reconstructs a tensor blob — plain or chunked — into
// dst's storage (capacity ≥ elems), returning the elems-length result.
// A non-nil ref is the residual baseline: it is folded back in, in place,
// per chunk (one pass while the chunk is still cache-warm), and a constant
// residual's stream is written as ref + v in one pass (lanes.Offset). chunkedOK
// gates the chunked layout on the stream version: in v1–v3 streams a 0xFC
// first byte is codec data and fails the codec's own magic check, exactly
// as before chunking existed. Chunks decode one after another on the
// calling goroutine, each into its own sub-range of dst: a tensor is one
// pool task, and cross-tensor parallelism is the scheduler's job (fanning
// chunks out measured slower than not: 0.86× on 2 CPUs). Decode + fold
// time accumulates into work.
func decodeBlobInto(lossy ebcl.Compressor, dst []float32, blob []byte, elems int, chunkedOK bool, ref []float32, work *atomic.Int64) ([]float32, error) {
	t0 := time.Now()
	defer func() { work.Add(int64(time.Since(t0))) }()
	if !chunkedOK || !isChunkedBlob(blob) {
		// A constant residual skips the codec; any other blob, a hostile
		// one too, takes it.
		if mc, ok := lossy.(magicCodec); ok && ref != nil {
			if v, ok := ebcl.ConstantOf(blob, mc.Magic(), elems); ok {
				data := ebcl.GrowFloats(dst, elems)
				lanes.Offset(data, ref, v)
				return data, nil
			}
		}
		data, err := lossy.DecompressInto(dst, blob)
		if err != nil {
			return nil, err
		}
		if len(data) != elems {
			return nil, fmt.Errorf("decoded %d elements, want %d", len(data), elems)
		}
		if ref != nil {
			lanes.Add(data, ref)
		}
		return data, nil
	}
	subs, err := parseChunkedBlob(blob, elems)
	if err != nil {
		return nil, err
	}
	full := dst[:elems]
	for i, sub := range subs {
		lo, hi := chunkBounds(elems, len(subs), i)
		// A zero-length sub-slice anchored at lo with capacity hi-lo: the
		// codec's DecompressInto reuses this storage when the declared
		// length fits, landing the chunk exactly in place.
		part, err := lossy.DecompressInto(full[lo:lo:hi], sub)
		if err != nil {
			return nil, fmt.Errorf("chunk %d/%d: %w", i, len(subs), err)
		}
		if len(part) != hi-lo {
			return nil, fmt.Errorf("chunk %d/%d: decoded %d elements, want %d", i, len(subs), len(part), hi-lo)
		}
		if len(part) > 0 && &part[0] != &full[lo] {
			// The codec allocated (a corrupt sub-blob declared more
			// elements than the sub-range holds, then decoded to the right
			// count after all): land the chunk where it belongs.
			copy(full[lo:hi], part)
		}
		if ref != nil {
			lanes.Add(full[lo:hi], ref[lo:hi])
		}
	}
	return full, nil
}
