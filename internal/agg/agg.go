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
// are then folded straight into the accumulator by one loop on the
// connection's goroutine; no state dict is assembled per update.
//
// # At most one fold per client per round
//
// Delivery is at-least-once: a client whose ack was lost retries, and the
// retry carries an update that already folded. The aggregator folds at most
// one update per client ID between Resets; a later one is decoded, verified
// through its trailer, acked and dropped. A program whose client contributes
// several updates to one round gives each its own ID.
//
// # Fold semantics and conformance
//
// An update is decoded in full and folded only after its wire trailer
// verifies, so a mid-stream corruption never half-folds into the
// accumulator, and an update that decoded to a NaN or an infinity anywhere
// is refused (ErrCorrupt) before it folds. The first update of a round is
// adopted (not added) and defines the structure later ones must match; later
// updates fold with the kernel a[i] += w·b[i] in arrival order, and Mean
// divides by the weight total (the count, for unweighted traffic).
// Sequential ingest is therefore bit-for-bit the textbook fold — adopt,
// StateDict.AddScaled, Scale — of the core.Decompress'ed updates. Under concurrent ingest only the arrival
// order can differ, which reassociates float addition; the conformance
// tests bound that difference (see TestShardedConformance).
//
// A delta update's constant residual (core.DecodedTensor's constant form,
// b[i] = fl(ref[i] + v)) is never written out: it folds straight from the
// reference with a[i] += w·fl(ref[i] + v) (lanes.AddScaledOffset), the same
// bits as writing it out first. Its finiteness needs no pass either. Float
// addition rounds monotonically, so with [lo, hi] the reference tensor's
// extent (both elements of it) some fl(ref[i] + v) is a NaN or an infinity
// exactly when v is, or the reference holds one, or fl(lo + v) or
// fl(hi + v) overflows. The extent is scanned once per reference tensor and
// epoch and cached; every other lossy tensor is scanned once per update.
//
// The metadata partition (biases, batch-norm statistics, counters) is never
// built into tensors after the first update: it stays the bytes it
// decompressed to, which are checked against the adopted structure, judged
// finite and folded with a[i] += w·b[i] in place, the same bits as
// unmarshalling it and folding with StateDict.AddScaled.
//
// Once a round has adopted a structure, every later decode is handed it
// (core.DecodeOptions.Structure), so an update whose tensors differ is
// refused as its sections parse, before a buffer is taken for them; commit
// checks again for an update that began decoding before the adoption.
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
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
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
	// Shards is ignored: the fold is one loop.
	//
	// Deprecated: leave it unset.
	Shards int
	// Pool supplies decode and Forward-encode parallelism (nil selects the
	// process-wide shared pool).
	Pool *sched.Pool
}

// metaAcc pins a metadata entry's name and accumulator from the first
// update; later updates are validated against it before anything folds.
type metaAcc struct {
	name string
	acc  []float32 // pooled; aliased by sumView
}

// layout is the stream structure the first committed update defines:
// every later update must match it exactly, mirroring the structural
// strictness of StateDict.AddScaled.
type layout struct {
	*core.Structure
	lossy [][]float32 // each lossy tensor's accumulator, in stream order
	meta  []metaAcc   // the metadata partition's, in its entry order
}

// Sharded is the FedAvg aggregator: a flserve.StreamIngestor that decodes
// each update section by section and folds it into one accumulator. Zero
// value is not usable; construct with New.
type Sharded struct {
	pool *sched.Pool
	m    aggMetrics

	mu sync.Mutex
	// structure is the layout adopted from the first committed update.
	structure *layout
	// sumView is the accumulator as one StateDict in original entry order:
	// the first update's own dict, whose tensors the fold mutates in place
	// through structure's accumulators.
	sumView *tensor.StateDict
	n       int
	wsum    float64
	seen    map[uint32]bool // client IDs folded this round

	// refs caches reference extents for the finiteness verdict; it has its
	// own lock, so the verdict runs before commit, outside mu.
	refs refExtents
	// adopted is structure's core.Structure, published for decodes to read
	// without mu: a decode that waited on mu would wait on every fold.
	adopted atomic.Pointer[core.Structure]
}

// refExtents caches lanes.Scan of the reference tensors constant residuals
// were decoded against, for one epoch at a time: a new epoch clears it, and
// an entry is keyed by the tensor's storage, so a different reference slice
// is scanned afresh. A reference does not change within its epoch (delta.Ref
// advances only between rounds, with the epoch).
type refExtents struct {
	mu    sync.Mutex
	epoch uint32
	m     map[*float32]refExtent
}

type refExtent struct {
	n int
	e lanes.Extent
}

// of returns ref's extent at epoch; ref must not be empty.
func (c *refExtents) of(epoch uint32, ref []float32) lanes.Extent {
	c.mu.Lock()
	if c.m == nil || c.epoch != epoch {
		c.m, c.epoch = make(map[*float32]refExtent), epoch
	}
	x, ok := c.m[&ref[0]]
	c.mu.Unlock()
	if ok && x.n == len(ref) {
		return x.e
	}
	e := lanes.Scan(ref) // outside the lock: other updates' verdicts go on
	c.mu.Lock()
	if c.epoch == epoch {
		c.m[&ref[0]] = refExtent{len(ref), e}
	}
	c.mu.Unlock()
	return e
}

// New builds a Sharded aggregator.
func New(cfg Config) *Sharded {
	pool := cfg.Pool
	if pool == nil {
		pool = sched.Default()
	}
	return &Sharded{pool: pool, seen: make(map[uint32]bool), m: aggMetrics{
		mergeHist: telemetry.NewHistogram(telemetry.DurationBuckets),
		waitHist:  telemetry.NewHistogram(telemetry.DurationBuckets),
	}}
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
	dopts.Structure = s.adopted.Load()
	upd, stats, err := core.DecodeSections(ctx, s.pool, src, dopts)
	if err != nil {
		return 0, core.DecompressStats{}, err
	}
	if name := s.nonFinite(dopts.RefEpoch, upd); name != "" {
		upd.Release()
		return 0, core.DecompressStats{}, fmt.Errorf("%w: agg: tensor %q decoded to a %w", core.ErrCorrupt, name, core.ErrNonFinite)
	}
	if err := s.commit(client, weight, upd); err != nil {
		upd.Release()
		return 0, core.DecompressStats{}, err
	}
	stats.DecompressTime = time.Since(start) // the fold is part of the update's wall clock
	return src.WireBytes(), *stats, nil
}

// nonFinite names the first tensor of upd, lossy and then metadata, that
// holds a NaN or an infinity, or returns "" when every value is finite.
// Folded, one such value turns its whole tensor's mean non-finite. A
// constant residual is judged from its value and its reference's cached
// extent at epoch (see the package doc); every other lossy tensor carries
// its decoder's verdict (core.DecodedTensor.Finite), and the metadata
// partition is read in place.
func (s *Sharded) nonFinite(epoch uint32, upd *core.DecodedStream) string {
	for i := range upd.Tensors {
		t := &upd.Tensors[i]
		switch {
		case t.Elems() == 0:
		case t.Data == nil:
			if e := s.refs.of(epoch, t.Ref); !e.Finite() || !finite(t.Const) || !finite(e.Lo+t.Const) || !finite(e.Hi+t.Const) {
				return t.Name
			}
		case !t.Finite:
			return t.Name
		}
	}
	r, count, _ := tensor.NewReader(upd.Meta) // validated by DecodeSections
	for range count {
		if e, _ := r.Next(); !finiteBytes(e.Vals) {
			return string(e.Name)
		}
	}
	return ""
}

// finite reports whether v is neither a NaN nor an infinity.
func finite(v float32) bool { return math.Float32bits(v)&^(1<<31) < 0x7f800000 }

// finiteBytes is finite for every little-endian float32 in vals. A float
// is finite when its bits &^ sign sit below +Inf's 0x7f800000, that is when
// adding 0x00800000 to them leaves bit 31 clear; one 64-bit step judges two
// floats, since the low one's sum cannot carry out of its half.
func finiteBytes(vals []byte) bool {
	var sum uint64
	for ; len(vals) >= 8; vals = vals[8:] {
		sum |= binary.LittleEndian.Uint64(vals)&0x7fffffff7fffffff + 0x0080000000800000
	}
	if len(vals) >= 4 {
		sum |= uint64(binary.LittleEndian.Uint32(vals)&0x7fffffff + 0x00800000)
	}
	return sum&0x8000000080000000 == 0
}

// addScaledBytes is lanes.AddScaled(acc, b, w) with b the little-endian
// float32s in vals: acc[j] += w·b[j], rounded as the kernel rounds.
func addScaledBytes(acc []float32, vals []byte, w float32) {
	vals = vals[:4*len(acc)]
	for j := range acc {
		acc[j] += w * math.Float32frombits(binary.LittleEndian.Uint32(vals))
		vals = vals[4:]
	}
}

// commit folds one fully verified, fully decoded update into the
// accumulator, or drops it if client already folded this round. It
// validates first and folds second, so a structural mismatch aborts with the
// accumulator untouched and upd still owning its buffers; on success they
// belong to the accumulator (first update) or have been recycled.
func (s *Sharded) commit(client uint32, weight float64, upd *core.DecodedStream) error {
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	// The fold is timed from the lock on; the wait for other updates' folds
	// is its own stage.
	t1 := time.Now()
	s.m.waitHist.Observe(t1.Sub(t0).Seconds())
	if s.seen[client] {
		upd.Release()
		return nil
	}

	w := float32(weight)
	if s.structure == nil {
		// First update: it becomes the accumulator, and its layout the
		// structure. StateDict writes its constant tensors out, so the
		// accumulator never reads the reference.
		l := &layout{Structure: upd.Structure(), lossy: make([][]float32, len(upd.Tensors))}
		s.sumView = upd.StateDict()
		// The dict holds the lossy tensors in stream order among the
		// metadata entries, and every name once.
		li := 0
		for _, e := range s.sumView.Entries() {
			if li < len(l.lossy) && e.Name == l.Lossy[li].Name {
				l.lossy[li] = e.Tensor.Data
				li++
			} else {
				l.meta = append(l.meta, metaAcc{name: e.Name, acc: e.Tensor.Data})
			}
		}
		s.structure = l
		s.adopted.Store(l.Structure)
		if weight != 1 {
			s.sumView.Scale(w)
		}
	} else {
		if err := s.checkStructure(upd); err != nil {
			return err
		}
		for i, acc := range s.structure.lossy {
			if t := &upd.Tensors[i]; t.Data == nil {
				lanes.AddScaledOffset(acc, t.Ref, t.Const, w)
			} else {
				lanes.AddScaled(acc, t.Data, w)
			}
		}
		r, _, _ := tensor.NewReader(upd.Meta)
		for _, m := range s.structure.meta {
			e, _ := r.Next()
			addScaledBytes(m.acc, e.Vals, w)
		}
		upd.Release()
	}
	s.seen[client] = true
	s.n++
	s.wsum += weight
	s.m.updates.Inc()
	s.m.mergeHist.Observe(time.Since(t1).Seconds())
	return nil
}

// checkStructure validates an update against the adopted layout: the path
// flags, each lossy tensor's name and element count, and the metadata
// partition in place under StateDict.CheckCompatible's rules (entry count,
// names in order, element counts).
func (s *Sharded) checkStructure(upd *core.DecodedStream) error {
	st := s.structure
	if !bytes.Equal(st.Flags, upd.Flags) {
		return fmt.Errorf("%w: agg: update path flags differ from %w", core.ErrCorrupt, core.ErrStructure)
	}
	for i := range upd.Tensors {
		want, t := &st.Lossy[i], &upd.Tensors[i]
		if t.Name != want.Name || t.Elems() != want.Elems {
			return fmt.Errorf("%w: agg: tensor %d is %q[%d], %w holds %q[%d]",
				core.ErrCorrupt, i, t.Name, t.Elems(), core.ErrStructure, want.Name, want.Elems)
		}
	}
	r, count, _ := tensor.NewReader(upd.Meta) // validated by DecodeSections
	if int(count) != len(st.meta) {
		return fmt.Errorf("%w: agg: metadata partition: entry count %d, %w holds %d", core.ErrCorrupt, count, core.ErrStructure, len(st.meta))
	}
	for i, m := range st.meta {
		e, _ := r.Next()
		if string(e.Name) != m.name || len(e.Vals)/4 != len(m.acc) {
			return fmt.Errorf("%w: agg: metadata partition: entry %d is %q[%d], %w holds %q[%d]",
				core.ErrCorrupt, i, e.Name, len(e.Vals)/4, core.ErrStructure, m.name, len(m.acc))
		}
	}
	return nil
}

// Mean returns the weighted FedAvg mean of the folded updates (original
// entry order, each tensor one lanes.Scale pass from the accumulator into a
// pooled buffer) and the update count; nil and 0 before the first update.
// Recycle via core.Release.
func (s *Sharded) Mean() (*tensor.StateDict, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mean()
}

// mean is Mean's body; s.mu must be held.
func (s *Sharded) mean() (*tensor.StateDict, int) {
	if s.sumView == nil {
		return nil, 0
	}
	w := float32(1 / s.wsum)
	out := tensor.NewStateDict()
	for _, e := range s.sumView.Entries() {
		n := e.Tensor.NumElems()
		buf := sched.GetFloats(n)[:n]
		lanes.Scale(buf, e.Tensor.Data, w)
		out.Add(e.Name, e.Kind, tensor.FromData(buf, e.Tensor.Shape...))
	}
	return out, s.n
}

// Forward sends the fold upstream as ONE fused update over the FLS3 weighted
// protocol — the mean, encoded with opts straight into wire frames by
// flserve.Client.UploadWeighted, at the folded population weight — and
// resets the accumulator for the next round: what makes a server an
// interior node of an edge→root tree. The mean is lossy-compressed again
// here, so the hop costs one extra error bound on top of the client-side
// one; tighten it (e.g. ebcl.Rel(1e-4)) when the tree is deep. It returns
// the weight forwarded (the represented population size); 0 with a nil error
// means there was nothing to forward. A non-finite mean (finite updates can
// overflow the float32 sum) is an error, sent nowhere. On error the
// accumulator is kept so a later Forward can retry. The lock is held from
// the mean through the reset, so an update that commits during a forward
// waits and folds into the next round instead of being acked and lost.
func (s *Sharded) Forward(ctx context.Context, up *flserve.Client, id uint32, opts core.Options) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mean, n := s.mean()
	if n == 0 {
		return 0, nil
	}
	defer core.Release(mean)
	for _, e := range mean.Entries() {
		if len(e.Tensor.Data) > 0 && !lanes.Scan(e.Tensor.Data).Finite() {
			return 0, fmt.Errorf("agg: forward: the mean of tensor %q is not finite", e.Name)
		}
	}
	weight := s.wsum
	if err := up.UploadWeighted(ctx, id, weight, mean, opts, s.pool); err != nil {
		return 0, fmt.Errorf("agg: forward upload: %w", err)
	}
	s.reset()
	return weight, nil
}

// Reset clears the accumulator for the next round, recycling its pooled
// buffers. The structure is re-adopted from the next round's first
// update, so a model shape change between rounds is permitted.
func (s *Sharded) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reset()
}

// reset is Reset's body; s.mu must be held.
func (s *Sharded) reset() {
	core.Release(s.sumView)
	s.structure = nil
	s.adopted.Store(nil)
	s.sumView = nil
	s.n = 0
	s.wsum = 0
	clear(s.seen)
}
