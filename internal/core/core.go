// Package core implements the FedSZ compression scheme itself — the paper's
// primary contribution (Algorithm 1 and Figure 1):
//
//  1. Partition a model state dict into lossy-compressible dense weight
//     tensors (kind == weight AND element count above a threshold) and the
//     remaining metadata/non-weight tensors.
//  2. Lossy-compress each weight tensor (flattened to 1-D) with an
//     error-bounded lossy compressor; serialize and lossless-compress the
//     remainder as one blob.
//  3. Emit a single self-describing bitstream for transmission.
//
// Decompression reverses the pipeline and restores a state dict with the
// original entry order, shapes, and kinds.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/ebcl"
	"repro/internal/lossless"
	"repro/internal/sched"
	"repro/internal/sz2"
	"repro/internal/tensor"
)

const (
	streamMagic = 0x46535A31 // "FSZ1"

	// streamVersionV1 streams carry single-stream Huffman entropy payloads
	// and compact section length prefixes. The decoder accepts them forever;
	// the encoder no longer produces them.
	streamVersionV1 = 1
	// streamVersion (v2) marks streams whose quantization-code blobs may use
	// the multi-stream Huffman layout and whose tensor sections carry
	// fixed-width (padded-uvarint) length prefixes. This is what the encoder
	// emits for absolute (reference-free) streams.
	streamVersion = 2
	// streamVersionV3 marks cross-round delta streams: the header carries the
	// reference epoch and every tensor section carries a mode byte selecting
	// absolute or residual encoding. The encoder emits v3 only when
	// Options.Reference is set, so absolute streams stay bit-identical to v2.
	streamVersionV3 = 3
	// streamVersionV4 marks streams where at least one tensor blob uses the
	// chunked layout: the tensor splits into block-aligned chunks, each an
	// independently decodable codec stream, behind a chunk jump table (see
	// chunk.go). The header always carries the reference epoch (0 when no
	// reference was used) and every tensor section carries a mode byte, so
	// v4 composes with the v3 delta machinery — a chunked residual is just a
	// chunked blob under mode byte 1. The encoder emits v4 only when a
	// tensor actually chunks (a decision derived from element counts and
	// Options alone, never from the pool size), so streams whose tensors
	// all stay below the chunk threshold remain bit-identical to v2/v3.
	streamVersionV4 = 4

	pathLossless = 0
	pathLossy    = 1

	// Tensor-section mode bytes (v3/v4 streams only).
	sectionAbsolute = 0
	sectionDelta    = 1
)

// supportedStreamVersion reports whether the decoder understands version v.
// v1 and v2 remain fully decodable: the entropy layer self-describes its
// blob format and section length prefixes use uvarint semantics either way,
// so one decode path serves all versions — v3 adds the reference epoch and
// per-section mode byte, v4 additionally allows chunked tensor blobs.
func supportedStreamVersion(v byte) bool {
	return v == streamVersionV1 || v == streamVersion || v == streamVersionV3 ||
		v == streamVersionV4
}

// ErrCorrupt is returned for malformed FedSZ bitstreams.
var ErrCorrupt = errors.New("core: corrupt FedSZ stream")

// ErrReference marks a delta (v3) stream the decoder cannot reconstruct
// here: it holds no reference state dict, holds one for a different epoch,
// or the reference lacks a tensor the stream encodes as a residual. The
// stream itself is well-formed — deliberately distinct from ErrCorrupt so a
// transport can respond by renegotiating an absolute upload instead of
// treating the peer as broken.
var ErrReference = errors.New("core: delta reference unavailable or mismatched")

// DefaultThreshold is Algorithm 1's size gate: weight tensors with at least
// this many elements take the lossy path.
const DefaultThreshold = 1024

// Options configures the pipeline. The zero value selects the paper's
// recommended configuration: SZ2 at relative error bound 1e-2 with blosc-lz
// for the lossless partition.
type Options struct {
	// Lossy is the EBLC for weight tensors; nil selects SZ2.
	Lossy ebcl.Compressor
	// LossyParams is the error-control setting; zero selects REL 1e-2.
	LossyParams ebcl.Params
	// Lossless compresses the metadata partition; nil selects blosc-lz.
	Lossless lossless.Codec
	// Threshold gates the lossy path by element count; 0 selects
	// DefaultThreshold. Negative disables the gate (threshold 0).
	Threshold int
	// DisablePartitioning routes *every* tensor through the lossy path —
	// the ablation the paper warns causes "extreme degradation" (§V-C).
	DisablePartitioning bool
	// Reference, when non-nil, switches the encoder to the v3 cross-round
	// delta format: each lossy tensor with a same-named, same-sized entry in
	// the reference is compressed as the residual update − reference when
	// that wins (per-section fallback to absolute otherwise), and the stream
	// header records RefEpoch so the decoder can verify it reconstructs
	// against the same baseline. A REL bound is resolved against the
	// original tensor's value range before the residual is encoded, so the
	// documented error contract holds on the original data.
	Reference *tensor.StateDict
	// RefEpoch tags the v3 stream with the reference's epoch (ignored when
	// Reference is nil). Decoders refuse residual sections whose epoch does
	// not match their own reference (ErrReference).
	RefEpoch uint32
	// ChunkElems sets the intra-tensor chunking target: a lossy tensor with
	// more than this many elements splits into up to MaxChunks block-aligned
	// chunks that compress concurrently, switching the stream to the v4
	// format. 0 selects DefaultChunkElems; negative disables
	// chunking entirely (every stream keeps the v2/v3 layout). The chunk
	// count is derived from element counts alone, so the emitted bytes are
	// independent of the pool's parallelism.
	ChunkElems int
}

func (o Options) withDefaults() Options {
	if o.Lossy == nil {
		o.Lossy = sz2.NewCompressor()
	}
	if o.LossyParams == (ebcl.Params{}) {
		o.LossyParams = ebcl.Rel(1e-2)
	}
	if o.Lossless == nil {
		o.Lossless = lossless.NewBloscLZ()
	}
	switch {
	case o.Threshold == 0:
		o.Threshold = DefaultThreshold
	case o.Threshold < 0:
		o.Threshold = 0
	}
	return o
}

// Stats reports what one Compress call did.
type Stats struct {
	RawBytes        int // full serialized state dict size (4 B / element)
	CompressedBytes int // emitted stream size

	LossyTensors    int
	LossyRaw        int
	LossyCompressed int

	LosslessTensors    int
	LosslessRaw        int
	LosslessCompressed int

	// DeltaTensors counts lossy tensors whose emitted section is a
	// cross-round residual (always 0 outside v3 delta streams); the
	// remaining LossyTensors − DeltaTensors sections fell back to absolute
	// encoding.
	DeltaTensors int
	// ConstantResiduals counts the DeltaTensors whose residual fit the bound
	// around one value and shipped as a 13-byte constant stream (encodeBlob).
	ConstantResiduals int
	// DeltaBytesSaved totals the bytes the codec-encoded residual sections
	// saved over their absolute candidates — the per-call slice of the
	// fedsz_delta_bytes_saved telemetry counter. Exact up to 32 Ki elements;
	// a larger tensor's absolute size is scaled up from a 1/8 sample
	// (encodeBlob). Constant residuals add nothing: no absolute size is ever
	// computed for one.
	DeltaBytesSaved int

	// ChunkedTensors counts lossy tensors emitted as chunked (v4) blobs;
	// 0 means the stream kept the v2/v3 layout.
	ChunkedTensors int

	// CompressTime is the wall clock of the whole encode, including time
	// spent blocked writing when streaming through CompressTo.
	CompressTime time.Duration
	// WriteWait is the time the encoder spent blocked emitting sections —
	// effectively zero for in-memory streams, the network-bound component
	// when compressing straight into a socket.
	WriteWait time.Duration
	// EncodeWork is the summed per-blob compress time across all tensors
	// and the lossless partition (it exceeds wall clock when the encode
	// fans out).
	EncodeWork time.Duration

	// BytesRecycled is the total buffer capacity (codec scratch, blobs,
	// payload staging) this encode returned to the sched pools instead of
	// dropping to the garbage collector — the observable for the zero-copy
	// codec contract. The counter is process-wide, so concurrent calls
	// attribute shared traffic approximately.
	BytesRecycled uint64
}

// EncodeOverlapRatio reports the fraction of encode work hidden behind the
// rest of the call — output writes and other blobs' encodes: 0 means the
// stream compressed strictly before sending (wall = work + wait), 1 means
// compression was fully overlapped with the upload (wall ≈ wait, the
// network-bound ideal of a streaming client). The mirror of
// DecompressStats.OverlapRatio.
func (s *Stats) EncodeOverlapRatio() float64 {
	return overlapRatio(s.WriteWait, s.EncodeWork, s.CompressTime)
}

// overlapRatio is the fraction of work hidden behind the rest of a call
// that took wall in total and spent wait blocked on its peer:
// (wait + work − wall) / work, clamped to [0, 1].
func overlapRatio(wait, work, wall time.Duration) float64 {
	if work <= 0 {
		return 0
	}
	hidden := wait + work - wall
	return min(max(float64(hidden)/float64(work), 0), 1)
}

// Ratio returns the end-to-end compression ratio.
func (s *Stats) Ratio() float64 {
	if s.CompressedBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.CompressedBytes)
}

// LossyRatio returns the ratio achieved on the weight partition alone.
func (s *Stats) LossyRatio() float64 {
	if s.LossyCompressed == 0 {
		return 0
	}
	return float64(s.LossyRaw) / float64(s.LossyCompressed)
}

// takesLossyPath applies Algorithm 1 line 4.
func takesLossyPath(e tensor.Entry, o Options) bool {
	if o.DisablePartitioning {
		return true
	}
	return e.Kind == tensor.KindWeight && e.Tensor.NumElems() > o.Threshold
}

// Compress runs the FedSZ pipeline over a state dict on the process-wide
// shared worker pool.
func Compress(sd *tensor.StateDict, opts Options) ([]byte, *Stats, error) {
	return CompressWith(context.Background(), sched.Default(), sd, opts)
}

// CompressWith runs the FedSZ pipeline drawing per-tensor parallelism from
// the given pool (nil runs serially). Batch callers pass one pool so the
// whole batch shares a single parallelism budget. It is a thin wrapper
// over the incremental CompressSections encoder, appending each emitted
// section to one buffer — there is exactly one encoder, so the in-memory
// and streaming (CompressTo) outputs are byte-identical by construction.
func CompressWith(ctx context.Context, pool *sched.Pool, sd *tensor.StateDict, opts Options) ([]byte, *Stats, error) {
	out := make([]byte, 0, sd.SizeBytes()/4+256)
	stats, err := CompressSections(ctx, pool, sd, opts, func(_ SectionKind, payload []byte) error {
		out = append(out, payload...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// DecompressStats reports what one Decompress call did.
type DecompressStats struct {
	// DecompressTime is the wall clock of the whole decode, including time
	// spent waiting for input when reading from a stream.
	DecompressTime time.Duration
	// ReadWait is the time the decoder spent blocked reading its input —
	// effectively zero for in-memory streams, the network-bound component
	// for socket ingest.
	ReadWait time.Duration
	// DecodeWork is the summed per-blob decode time across all tensors and
	// the lossless partition (it exceeds wall clock when decode fans out).
	DecodeWork time.Duration
	// BytesRecycled is the total buffer capacity this decode returned to
	// the sched pools (blob scratch, entropy-stage tables, lossless-stage
	// payloads) instead of dropping to the garbage collector. The counter
	// is process-wide, so concurrent decodes attribute shared traffic
	// approximately.
	BytesRecycled uint64
	// DeltaTensors counts tensor sections reconstructed as residual + the
	// supplied reference (always 0 for v1/v2 streams).
	DeltaTensors int
	// ChunkedTensors counts tensor sections whose blobs used the chunked
	// (v4) layout (always 0 for v1–v3 streams).
	ChunkedTensors int
}

// DecodeOptions configures reference-aware (v3 delta) decoding. The zero
// value decodes absolute streams exactly as before; a v3 stream whose
// residual sections cannot be reconstructed with the supplied reference
// fails with ErrReference.
type DecodeOptions struct {
	// Reference is the baseline state dict residual sections add back onto;
	// nil refuses every residual section.
	Reference *tensor.StateDict
	// RefEpoch is the epoch Reference corresponds to; residual sections in
	// streams tagged with a different epoch are refused (the sender encoded
	// against a baseline this decoder does not hold).
	RefEpoch uint32
}

// OverlapRatio reports the fraction of decode work hidden behind the rest
// of the call — input waits and other blobs' decodes: 0 means the decode
// ran strictly after receiving (wall = wait + work), 1 means it was fully
// overlapped (wall ≈ wait, the network-bound ideal of a streaming server).
func (s *DecompressStats) OverlapRatio() float64 {
	return overlapRatio(s.ReadWait, s.DecodeWork, s.DecompressTime)
}

// Decompress reverses Compress on the process-wide shared worker pool. The
// stream is self-describing: the lossy compressor and lossless codec are
// selected by the names it carries.
func Decompress(stream []byte) (*tensor.StateDict, *DecompressStats, error) {
	return DecompressWith(context.Background(), sched.Default(), stream, DecodeOptions{})
}

// DecompressWith reverses Compress, decoding the per-tensor lossy blobs
// concurrently on the given pool (nil runs serially) — the mirror of the
// compress-side fan-out. It runs the same DecodeSections pipeline as the
// streaming DecompressFrom, over zero-copy section views of stream. v3
// delta streams reconstruct residual sections against o.Reference (see
// DecodeOptions); v1/v2 streams ignore o entirely. Cancelling ctx stops the
// decode at the next section boundary and returns ctx.Err().
func DecompressWith(ctx context.Context, pool *sched.Pool, stream []byte, o DecodeOptions) (*tensor.StateDict, *DecompressStats, error) {
	return decompress(ctx, pool, &memSections{data: stream}, o)
}

// CompressAll runs the FedSZ pipeline over many client state dicts with
// one parallelism budget shared across the whole batch. Unlike calling
// Compress in N goroutines — which would oversubscribe the machine
// N × GOMAXPROCS — the batch and the per-tensor fan-out inside each call
// draw from the same pool. Output i corresponds to input i and is
// bit-identical to Compress(sds[i], opts). Cancelling ctx stops the batch
// after the in-flight clients finish.
func CompressAll(ctx context.Context, pool *sched.Pool, sds []*tensor.StateDict, opts Options) ([][]byte, []*Stats, error) {
	streams := make([][]byte, len(sds))
	stats := make([]*Stats, len(sds))
	errs := make([]error, len(sds))
	if err := pool.ForEachCtx(ctx, len(sds), func(i int) {
		streams[i], stats[i], errs[i] = CompressWith(ctx, pool, sds[i], opts)
	}); err != nil {
		return nil, nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("core: batch compress client %d: %w", i, err)
		}
	}
	return streams, stats, nil
}

// DecompressAll reverses CompressAll: the aggregation-server hot path of
// the paper's Eqn-1 scenario, where one process ingests N concurrent
// client streams per round. All streams and all tensors within them decode
// under the pool's one parallelism budget, and one DecodeOptions serves the
// whole batch — the round where every client encoded against the same
// broadcast reference. Output i is bit-identical to
// DecompressWith(streams[i], o). Cancelling ctx stops the batch after the
// in-flight clients finish. On any failure the dicts that did decode are
// released back to the float pool before the error returns.
func DecompressAll(ctx context.Context, pool *sched.Pool, streams [][]byte, o DecodeOptions) ([]*tensor.StateDict, []*DecompressStats, error) {
	sds := make([]*tensor.StateDict, len(streams))
	stats := make([]*DecompressStats, len(streams))
	errs := make([]error, len(streams))
	err := pool.ForEachCtx(ctx, len(streams), func(i int) {
		sds[i], stats[i], errs[i] = DecompressWith(ctx, pool, streams[i], o)
	})
	for i, e := range errs {
		if err == nil && e != nil {
			err = fmt.Errorf("core: batch decompress client %d: %w", i, e)
		}
	}
	if err != nil {
		for _, sd := range sds {
			Release(sd)
		}
		return nil, nil, err
	}
	return sds, stats, nil
}

// Release returns sd's tensor buffers to the shared float pool and must
// only be called when nothing references the state dict anymore — the
// fold-and-discard discipline of an aggregation server: Decompress lands
// reconstructed tensors in pool-backed buffers, the aggregator folds them
// into its accumulator, and Release recycles the storage for the next client's
// decode. Releasing a dict the caller still reads (or one whose tensors
// are shared with live state) corrupts data; when in doubt, let the
// garbage collector have it instead.
func Release(sd *tensor.StateDict) {
	if sd == nil {
		return
	}
	for _, e := range sd.Entries() {
		sched.PutFloats(e.Tensor.Data)
	}
}

func appendString(dst []byte, s string) []byte {
	if len(s) > 255 {
		panic(fmt.Sprintf("core: string too long (%d)", len(s)))
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...)
}

func readString(src []byte, pos int) (string, int, error) {
	if pos >= len(src) {
		return "", 0, ErrCorrupt
	}
	l := int(src[pos])
	pos++
	if pos+l > len(src) {
		return "", 0, ErrCorrupt
	}
	return string(src[pos : pos+l]), pos + l, nil
}
