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
// Compress and Decompress are the codec's one encode and one decode: every
// stream, however it travels, is produced by the same section encoder and
// read back by the same section decoder.
//
// Sub-systems (the four EBLCs, the lossless codecs, the FL substrate, the
// network simulator) live under internal/ and are exercised through this
// package, the example programs, and the experiment harness in
// cmd/fedsz-bench. The lossy codec is one of the paper's four EBLCs, chosen
// by name with WithCompressor; the set is fixed at build time.
//
// # Many clients at once
//
// The paper's Equation 1 makes compression worthwhile only when
// tC + tD + S'/B < S/B, so server-side decompression time tD is on the
// critical path: an aggregation server ingests one stream per client per
// round, and with hundreds of clients the decode dominates. A Codec is safe
// for concurrent use, so a batch is N goroutines calling Compress or
// Decompress on one codec: the per-tensor fan-out inside every call draws
// helper slots from the codec's one bounded pool, so the batch runs at most
// its N callers plus that budget, and each result is bit-identical to a lone
// call. The measured aggregation-server round loop is bench/
// (bash bench/run.sh).
//
// # Streaming
//
// A FedSZ stream is sequential — header, per-tensor sections, one
// lossless section — so it is encoded while it is sent and decoded while it
// arrives. It crosses a socket in one way: internal/wire frames each section
// (wire.EncodeStream on the sender, wire.SectionSource into the section
// decoder on the receiver), and internal/flserve runs a TCP aggregation
// server over it that ingests concurrent client uploads with bounded memory
// and per-connection backpressure; see cmd/fedsz-serve with
// cmd/fedsz-bench -upload ADDR for the socket-level round loop, and the
// README for the wire-format layout.
package fedsz

import (
	"time"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/netsim"
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

// Stats reports what one Codec.Compress call did, including the
// encode/send overlap accounting of a streaming (wire-framed) upload.
type Stats = core.Stats

// DecompressStats reports what one Codec.Decompress call did, including the
// decode/receive overlap accounting of a streaming (wire-framed) receive.
type DecompressStats = core.DecompressStats

// Params selects the error-control mode for the lossy compressor.
type Params = ebcl.Params

// Link models a constrained network path for the Eqn-1 decision.
type Link = netsim.Link

// Decision is the outcome of the compress/don't-compress test.
type Decision = netsim.Decision

// ShouldCompress evaluates the paper's Equation 1: compression pays off
// when tC + tD + S'/B < S/B.
func ShouldCompress(tC, tD time.Duration, rawBytes, compressedBytes int, link Link) Decision {
	return netsim.ShouldCompress(tC, tD, rawBytes, compressedBytes, link)
}
