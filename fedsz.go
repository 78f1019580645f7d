// Package fedsz is the public API of this FedSZ reproduction: error-bounded
// lossy compression for federated-learning model updates (Wilkins et al.,
// IPDPS 2024).
//
// The pipeline compresses a model state dictionary by partitioning it into
// large dense weight tensors — lossy-compressed with an error-bounded
// compressor (SZ2 by default, at relative error bound 1e-2) — and the
// remaining metadata, which is serialized and lossless-compressed (blosc-lz
// by default).
//
// # Session API
//
// The primary surface is the reusable Codec session, built once via
// functional options (configuration validated at construction) and safe
// for concurrent use; every method takes a context:
//
//	codec, err := fedsz.New(fedsz.WithCompressor("sz2"), fedsz.WithRelBound(1e-2))
//	...
//	sd := fedsz.NewStateDict()
//	sd.Add("conv1.weight", fedsz.KindWeight, fedsz.NewTensor(weights, 64, 32, 3, 3))
//	stream, stats, err := codec.Compress(ctx, sd)
//	...
//	restored, _, err := codec.Decompress(ctx, stream)
//
// The codec exposes the full symmetric matrix — Compress / CompressTo /
// CompressAll and Decompress / DecompressFrom / DecompressAll — where the
// streaming pair overlaps codec work with socket I/O in both directions.
// The package-level free functions below remain as thin wrappers over a
// default codec (bit-identical output) for one-shot use.
//
// Sub-systems (the four EBLCs, the lossless codecs, the FL substrate, the
// network simulator) live under internal/ and are exercised through this
// package, the example programs, and the experiment harness in
// cmd/fedsz-bench.
//
// # Batched server-side decode
//
// The paper's Equation 1 makes compression worthwhile only when
// tC + tD + S'/B < S/B, so server-side decompression time tD is on the
// critical path: an aggregation server ingests one stream per client per
// round, and with hundreds of clients the decode dominates. CompressAll
// and DecompressAll process many client state dicts under one shared
// parallelism budget — per-tensor decode inside each stream and the
// across-stream fan-out draw helper slots from the same bounded pool, so
// batch size never oversubscribes the machine:
//
//	streams, _, err := fedsz.CompressAll(updates, fedsz.Options{}, 0)
//	...
//	restored, err := fedsz.DecompressAll(streams, 8) // 8-way budget
//
// Results are bit-identical to per-call Compress/Decompress. The measured
// aggregation-server round loop is bench/ (bash bench/run.sh).
//
// # Streaming ingest
//
// A FedSZ stream is sequential — header, per-tensor sections, one
// lossless section — so it decodes incrementally while still arriving:
// DecompressFrom reads from any io.Reader and decodes tensor i on the
// shared worker pool while tensor i+1 is still being received. Around it,
// internal/wire adds a length-framed, CRC-checked transport encoding and
// internal/flserve a TCP aggregation server that ingests concurrent
// client uploads with bounded memory and per-connection backpressure; see
// cmd/fedsz-serve with cmd/fedsz-bench -upload ADDR for the socket-level
// round loop, and the README for the wire-format layout.
package fedsz

import (
	"context"
	"io"
	"time"

	"repro/internal/compressors"
	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/lossless"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// Tensor is a dense float32 array with a shape (row-major).
type Tensor = tensor.Tensor

// StateDict is an ordered collection of named, kinded tensors — the Go
// analogue of a PyTorch state_dict().
type StateDict = tensor.StateDict

// Kind classifies a state-dict entry for the partitioner.
type Kind = tensor.Kind

// Entry kinds (Algorithm 1 routes KindWeight tensors above the size
// threshold to the lossy path; everything else goes lossless).
const (
	KindWeight      = tensor.KindWeight
	KindBias        = tensor.KindBias
	KindRunningStat = tensor.KindRunningStat
	KindScalarMeta  = tensor.KindScalarMeta
)

// NewStateDict returns an empty state dict.
func NewStateDict() *StateDict { return tensor.NewStateDict() }

// NewTensor wraps data (not copied) with a shape.
func NewTensor(data []float32, shape ...int) *Tensor { return tensor.FromData(data, shape...) }

// Options configures the pipeline; the zero value is the paper's
// recommended configuration (SZ2, REL 1e-2, blosc-lz, threshold 1024).
type Options = core.Options

// Stats reports what one Compress call did, including the encode/send
// overlap accounting of a streaming CompressTo.
type Stats = core.Stats

// DecompressStats reports what one Decompress call did, including the
// decode/receive overlap accounting of a streaming DecompressFrom.
type DecompressStats = core.DecompressStats

// Params selects the error-control mode for the lossy compressor.
type Params = ebcl.Params

// RelBound returns a value-range-relative error bound (the SZ convention
// the paper uses; 1e-2 is its recommended setting).
func RelBound(eb float64) Params { return ebcl.Rel(eb) }

// AbsBound returns an absolute error bound.
func AbsBound(eb float64) Params { return ebcl.Abs(eb) }

// Compress runs the FedSZ pipeline over a state dict — a thin wrapper
// over the default codec's pool with per-call options; output is
// bit-identical to Codec.Compress under the same configuration. New code
// should build a Codec (fedsz.New) for construction-time validation,
// contexts, and a dedicated parallelism budget.
func Compress(sd *StateDict, opts Options) ([]byte, *Stats, error) {
	return core.CompressWith(context.Background(), Default().pool, sd, opts)
}

// CompressTo streams the encode of sd straight into w (see
// Codec.CompressTo); the bytes written are identical to Compress.
func CompressTo(w io.Writer, sd *StateDict, opts Options) (*Stats, error) {
	return core.CompressTo(context.Background(), Default().pool, w, sd, opts)
}

// Decompress reverses Compress; the stream is self-describing.
func Decompress(stream []byte) (*StateDict, error) {
	sd, _, err := core.DecompressWith(context.Background(), Default().pool, stream, core.DecodeOptions{})
	return sd, err
}

// DecompressFrom decodes a FedSZ stream incrementally from r: each
// tensor's compressed blob decodes on the shared worker pool while the
// next is still being read, so on a socket the decode overlaps the
// receive. The result is bit-identical to Decompress of the same bytes.
func DecompressFrom(r io.Reader) (*StateDict, error) {
	sd, _, err := core.DecompressFrom(context.Background(), Default().pool, r, core.DecodeOptions{})
	return sd, err
}

// CompressAll runs the pipeline over many client state dicts with one
// parallelism budget shared across the whole batch (0 selects GOMAXPROCS).
// Output i is bit-identical to Compress(sds[i], opts).
func CompressAll(sds []*StateDict, opts Options, parallelism int) ([][]byte, []*Stats, error) {
	return core.CompressAll(context.Background(), sched.NewPool(parallelism), sds, opts)
}

// DecompressAll reverses CompressAll — the aggregation-server hot path:
// all streams, and all tensors within them, decode under one shared
// parallelism budget (0 selects GOMAXPROCS). Output i is bit-identical to
// Decompress(streams[i]).
func DecompressAll(streams [][]byte, parallelism int) ([]*StateDict, error) {
	sds, _, err := core.DecompressAll(context.Background(), sched.NewPool(parallelism), streams, core.DecodeOptions{})
	return sds, err
}

// Compressor is an error-bounded lossy compressor over flat float32 data —
// the minimal one-shot contract a custom codec must implement (Name,
// Compress, Decompress). The pipeline itself runs on the zero-copy
// ZeroCopyCompressor contract; codecs implementing only this shape are
// promoted automatically with AdaptCompressor, at the cost of one copy per
// call.
type Compressor = ebcl.BasicCompressor

// ZeroCopyCompressor is the full append/into codec contract the pipeline
// runs on: CompressAppend extends a caller-supplied byte buffer,
// DecompressInto reconstructs into a caller-supplied float32 buffer sized
// via DecodedLen, and the one-shot Compress/Decompress remain as thin
// wrappers. All four built-in EBLCs implement it natively; custom codecs
// should too (see examples/customcodec and the README migration note) so
// their tensors ride the pooled hot path.
type ZeroCopyCompressor = ebcl.Compressor

// AdaptCompressor promotes a one-shot Compressor to the zero-copy
// contract (a codec already implementing it passes through untouched) —
// useful for placing a legacy codec in Options.Lossy directly.
func AdaptCompressor(c Compressor) ZeroCopyCompressor { return ebcl.Adapt(c) }

// CompressorByName returns one of the four EBLCs ("sz2", "sz3", "szx",
// "zfp") for use in Options.Lossy.
func CompressorByName(name string) (ZeroCopyCompressor, error) { return compressors.Get(name) }

// CompressorNames lists the available EBLCs.
func CompressorNames() []string { return compressors.Names() }

// RegisterCompressor adds a custom error-bounded compressor to the
// registry so FedSZ streams produced with it can be decompressed (streams
// carry the compressor name). Built-in names cannot be replaced. The
// factory may return a codec implementing just the one-shot Compressor
// shape (it is adapted on resolution) or the full ZeroCopyCompressor
// contract. See examples/customcodec for a full walk-through.
func RegisterCompressor(name string, factory func() Compressor) error {
	return compressors.Register(name, factory)
}

// Recycle returns a decoded state dict's tensor buffers to the shared
// buffer pool. Decompress lands reconstructed tensors in pool-backed
// buffers; an aggregation loop that folds each decoded dict into an
// accumulator and discards it can call Recycle to hand the storage to the
// next decode — the steady-state zero-allocation hot path. The dict must
// not be used afterwards.
func Recycle(sd *StateDict) { core.Release(sd) }

// LosslessCodec compresses the metadata partition.
type LosslessCodec = lossless.Codec

// LosslessByName returns a lossless codec ("blosclz", "zstdlike", "xzlike",
// "gzip", "zlib") for use in Options.Lossless.
func LosslessByName(name string) (LosslessCodec, error) { return lossless.Get(name) }

// LosslessNames lists the available lossless codecs.
func LosslessNames() []string { return lossless.Names() }

// Link models a constrained network path for the Eqn-1 decision.
type Link = netsim.Link

// Decision is the outcome of the compress/don't-compress test.
type Decision = netsim.Decision

// ShouldCompress evaluates the paper's Equation 1: compression pays off
// when tC + tD + S'/B < S/B.
func ShouldCompress(tC, tD time.Duration, rawBytes, compressedBytes int, link Link) Decision {
	return netsim.ShouldCompress(tC, tD, rawBytes, compressedBytes, link)
}
