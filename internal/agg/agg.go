// Package agg implements the FedAvg aggregator — the fold every server in
// this repository runs — and the hierarchical (edge→root) tier built on it.
//
// # One path from socket to fold
//
// Sharded implements flserve.StreamIngestor: the server hands it each
// update's framed byte stream and it runs the shared section pipeline
// (core.DecodeSections over a wire.SectionSource) on it — every tensor
// section decodes on the shared sched.Pool while the next frame is still
// arriving, under the same caller-runs budget discipline as every other
// decode, so saturation turns into TCP backpressure. The decoded tensors
// are then folded straight into the accumulator; no state dict is
// assembled per update.
//
// # Sharded fold
//
// The accumulator is split across P shards keyed by a hash of the tensor
// name (P = 1 is the plain single-accumulator fold), and an update's fold
// runs as P independent tasks on the pool. A tensor name lives on exactly
// one shard, so there is no cross-shard float addition and the mean is the
// same bits for every P.
//
// # Fold semantics and conformance
//
// An update is decoded in full and folded only after its wire trailer
// verifies, so a mid-stream corruption never half-folds into the
// accumulator. The first update of a round is adopted (not added) and
// defines the structure later ones must match; later updates fold with the
// kernel a[i] += w·b[i] in arrival order, and Mean divides by the weight
// total (the count, for unweighted traffic). Sequential ingest is therefore
// bit-for-bit the textbook fold — adopt, StateDict.AddScaled, Scale — of
// the core.Decompress'ed updates. Under concurrent ingest only the
// per-tensor fold order can differ, which reassociates float addition; the
// conformance tests bound that difference (see TestShardedConformance).
//
// # Hierarchical topology
//
// An edge is a server whose Sharded is forwarded upstream (Forward) when its
// round completes: it folds its local population and sends ONE fused,
// weighted (FLS3) update, so a root folding E edges at weights n_1..n_E
// computes the same weighted mean as a flat fold of Σn_i clients — up to
// float reassociation and the one extra lossy encode of each edge's fused
// mean. Legacy clients upload to an edge exactly as they would to a flat
// server; the hierarchy is invisible below it.
package agg

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flserve"
	"repro/internal/lanes"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Config tunes a Sharded aggregator.
type Config struct {
	// Shards is P, the number of accumulator shards (0 selects 1).
	Shards int
	// Pool supplies decode and fold parallelism (nil selects the
	// process-wide shared pool).
	Pool *sched.Pool
	// DedupByClient folds only the first update per client ID and silently
	// accepts (acks, drains, drops) later duplicates — the at-least-once
	// delivery guard: a retried upload whose first attempt actually folded
	// (lost ack) must not double-weight its client. Leave false when one
	// client legitimately contributes several updates between Resets.
	DedupByClient bool
}

// lossyMeta pins a lossy tensor's identity and accumulator from the first
// update; later updates are validated against it before anything folds.
type lossyMeta struct {
	name  string
	shard int
	acc   []float32 // pooled; aliased by sumView
}

// layout is the stream structure the first committed update defines:
// every later update must match it exactly, mirroring the structural
// strictness of StateDict.AddScaled.
type layout struct {
	flags []byte
	lossy []lossyMeta
}

// Sharded is the FedAvg aggregator: a flserve.StreamIngestor that decodes
// each update section by section and folds it into a P-way sharded
// accumulator. Zero value is not usable; construct with New.
type Sharded struct {
	cfg  Config
	pool *sched.Pool
	m    aggMetrics

	mu sync.Mutex
	// structure is the layout adopted from the first committed update.
	structure *layout
	// meta is the lossless-partition accumulator (its tensors are sumView's).
	meta *tensor.StateDict
	// sumView is the accumulator as one StateDict in original entry order:
	// the first update's own dict, whose tensors the shard folds (through
	// lossyMeta.acc) and the meta fold mutate in place.
	sumView *tensor.StateDict
	n       int
	wsum    float64
	seen    map[uint32]bool
}

// New builds a Sharded aggregator.
func New(cfg Config) *Sharded {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	pool := cfg.Pool
	if pool == nil {
		pool = sched.Default()
	}
	return &Sharded{cfg: cfg, pool: pool, m: aggMetrics{
		mergeHist: telemetry.NewHistogram(telemetry.DurationBuckets),
		perShard:  make([]telemetry.Counter, cfg.Shards),
	}}
}

// Shards returns the configured shard count P.
func (s *Sharded) Shards() int { return s.cfg.Shards }

// shardOf routes a tensor name to its owning shard (FNV-1a).
func (s *Sharded) shardOf(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h % uint32(s.cfg.Shards))
}

// IngestStream consumes one wire-framed update from r: the
// flserve.StreamIngestor contract. The update folds atomically — decoded
// through the trailer check, then committed — and the returned stats carry
// wall/read-wait/decode-work timings for the server's overlap accounting.
func (s *Sharded) IngestStream(ctx context.Context, client uint32, weight float64, dopts core.DecodeOptions, r io.Reader) (int64, core.DecompressStats, error) {
	start := time.Now()
	if weight == 0 {
		weight = 1
	}
	src := wire.NewSectionSource(ctx, r)

	// Duplicate from a retried at-least-once upload: consume and verify
	// the stream (protocol stays in sync, trailer still checked) but fold
	// nothing.
	if s.cfg.DedupByClient && s.isDup(client) {
		if err := src.Drain(); err != nil {
			return 0, core.DecompressStats{}, err
		}
		return src.WireBytes(), core.DecompressStats{DecompressTime: time.Since(start), ReadWait: src.ReadWait()}, nil
	}

	upd, stats, err := core.DecodeSections(ctx, s.pool, src, dopts)
	if err != nil {
		return 0, core.DecompressStats{}, err
	}
	if err := s.commit(client, weight, upd); err != nil {
		upd.Release()
		return 0, core.DecompressStats{}, err
	}
	s.m.updates.Inc()
	stats.DecompressTime = time.Since(start) // the fold is part of the update's wall clock
	return src.WireBytes(), *stats, nil
}

// commit folds one fully verified, fully decoded update into the
// accumulator. It validates first and folds second, so a structural
// mismatch aborts with the accumulator untouched and upd still owning its
// buffers; on success they belong to the accumulator (first update) or
// have been recycled.
func (s *Sharded) commit(client uint32, weight float64, upd *core.DecodedStream) error {
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.DedupByClient {
		if s.seen == nil {
			s.seen = make(map[uint32]bool)
		}
		if s.seen[client] {
			// A concurrent duplicate slipped past the ingest-time check.
			upd.Release()
			return nil
		}
	}

	w := float32(weight)
	if s.structure == nil {
		// First update: it becomes the accumulator, and its layout the
		// structure.
		lossy := make([]lossyMeta, len(upd.Tensors))
		for i, t := range upd.Tensors {
			lossy[i] = lossyMeta{name: t.Name, shard: s.shardOf(t.Name), acc: t.Data}
		}
		s.structure = &layout{flags: upd.Flags, lossy: lossy}
		s.meta = upd.Meta
		s.sumView = upd.StateDict()
		if weight != 1 {
			s.sumView.Scale(w)
		}
	} else {
		if err := s.checkStructure(upd); err != nil {
			return err
		}
		// Fold each shard's slice as one independent task on the pool —
		// P-way fold parallelism, every tensor folded by exactly its owning
		// shard.
		lossy := s.structure.lossy
		s.pool.ForEach(s.cfg.Shards, func(si int) {
			for i := range lossy {
				if lossy[i].shard != si {
					continue
				}
				lanes.AddScaled(lossy[i].acc, upd.Tensors[i].Data, w)
			}
		})
		if err := s.meta.AddScaled(upd.Meta, w); err != nil {
			// Unreachable after checkStructure; kept as a hard stop so a
			// silent partial fold can never happen.
			return fmt.Errorf("agg: metadata partition: %w", err)
		}
		upd.Release()
	}
	for i := range s.structure.lossy {
		s.m.perShard[s.structure.lossy[i].shard].Inc()
	}
	if s.cfg.DedupByClient {
		s.seen[client] = true
	}
	s.n++
	s.wsum += weight
	s.m.mergeHist.Observe(time.Since(t0).Seconds())
	return nil
}

// checkStructure validates an update against the adopted layout.
func (s *Sharded) checkStructure(upd *core.DecodedStream) error {
	if !bytes.Equal(s.structure.flags, upd.Flags) {
		return fmt.Errorf("%w: agg: update path flags differ from accumulator", core.ErrCorrupt)
	}
	for i := range upd.Tensors {
		want, t := &s.structure.lossy[i], &upd.Tensors[i]
		if t.Name != want.name || len(t.Data) != len(want.acc) {
			return fmt.Errorf("%w: agg: tensor %d is %q[%d], accumulator holds %q[%d]",
				core.ErrCorrupt, i, t.Name, len(t.Data), want.name, len(want.acc))
		}
	}
	if err := s.meta.CheckCompatible(upd.Meta); err != nil {
		return fmt.Errorf("%w: agg: metadata partition: %w", core.ErrCorrupt, err)
	}
	return nil
}

// isDup reports whether client already folded (DedupByClient only).
func (s *Sharded) isDup(client uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[client]
}

// WeightSum returns the total aggregation weight folded so far — equal to
// the update count for unweighted traffic, the represented population size
// when edges forward weighted fused updates.
func (s *Sharded) WeightSum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wsum
}

// Mean returns the weighted FedAvg mean of the folded updates (a copy
// over pooled tensor buffers, original entry order) and the update count;
// nil and 0 before the first update. Recycle via core.Release.
func (s *Sharded) Mean() (*tensor.StateDict, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sumView == nil {
		return nil, 0
	}
	out := s.sumView.CloneInto(nil)
	out.Scale(float32(1 / s.wsum))
	return out, s.n
}

// Forward sends the fold upstream as ONE fused update over the FLS3 weighted
// protocol — the mean, encoded with opts, at the folded population weight —
// and resets the accumulator for the next round: what makes a server an
// interior node of an edge→root tree. The mean is lossy-compressed again
// here, so the hop costs one extra error bound on top of the client-side
// one; tighten it (e.g. ebcl.Rel(1e-4)) when the tree is deep. It returns
// the weight forwarded (the represented population size); 0 with a nil error
// means there was nothing to forward. On error the accumulator is kept so a
// later Forward can retry.
func (s *Sharded) Forward(ctx context.Context, up *flserve.Client, id uint32, opts core.Options) (float64, error) {
	mean, n := s.Mean()
	if n == 0 {
		return 0, nil
	}
	weight := s.WeightSum()
	stream, _, err := core.CompressWith(ctx, s.pool, mean, opts)
	core.Release(mean)
	if err != nil {
		return 0, fmt.Errorf("agg: forward encode: %w", err)
	}
	if err := up.UploadWeighted(ctx, id, weight, stream); err != nil {
		return 0, fmt.Errorf("agg: forward upload: %w", err)
	}
	s.Reset()
	return weight, nil
}

// Reset clears the accumulator for the next round, recycling its pooled
// buffers. The structure is re-adopted from the next round's first
// update, so a model shape change between rounds is permitted.
func (s *Sharded) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	core.Release(s.sumView)
	s.structure = nil
	s.meta = nil
	s.sumView = nil
	s.n = 0
	s.wsum = 0
	s.seen = nil
}
