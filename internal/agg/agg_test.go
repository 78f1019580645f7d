package agg

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/flserve"
	"repro/internal/lanes"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// clientUpdate synthesizes one client's model update: two lossy weight
// tensors plus metadata, distinct per seed.
func clientUpdate(seed uint64) *tensor.StateDict {
	rng := rand.New(rand.NewPCG(seed, seed^0x9E37))
	sd := tensor.NewStateDict()
	sd.Add("conv.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 4096), 64, 64))
	sd.Add("fc.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 2048), 2048))
	b := tensor.New(64)
	for i := range b.Data {
		b.Data[i] = float32(0.01 * rng.NormFloat64())
	}
	sd.Add("conv.bias", tensor.KindBias, b)
	return sd
}

// folded is the number of updates sh holds, read the way programs read it.
func folded(sh *Sharded) int {
	mean, n := sh.Mean()
	core.Release(mean)
	return n
}

// compressUpdates builds n compressed client streams plus their decoded
// (post-quantization) forms — the values any aggregator actually folds.
func compressUpdates(t testing.TB, n int) ([][]byte, []*tensor.StateDict) {
	t.Helper()
	streams := make([][]byte, n)
	decoded := make([]*tensor.StateDict, n)
	for i := range streams {
		var err error
		streams[i], _, err = core.Compress(clientUpdate(uint64(i)+1), core.Options{LossyParams: ebcl.Rel(1e-2)})
		if err != nil {
			t.Fatal(err)
		}
		decoded[i], _, err = core.Decompress(streams[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	return streams, decoded
}

// frame wire-frames a FedSZ stream the way a client upload would.
func frame(t testing.TB, stream []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.NewWriter(&buf).WriteStream(stream); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ingest pushes one framed stream through IngestStream.
func ingest(t testing.TB, s *Sharded, client uint32, weight float64, framed []byte) {
	t.Helper()
	if _, _, err := s.IngestStream(context.Background(), client, weight, core.DecodeOptions{}, bytes.NewReader(framed)); err != nil {
		t.Fatalf("ingest client %d: %v", client, err)
	}
}

// manualFold is the textbook FedAvg fold the aggregator must reproduce bit
// for bit under sequential unweighted ingest: adopt the first decoded
// update, StateDict.AddScaled each later one at weight 1, divide by the
// count in float32.
func manualFold(t testing.TB, decoded []*tensor.StateDict) *tensor.StateDict {
	t.Helper()
	sum := decoded[0].Clone()
	for _, sd := range decoded[1:] {
		if err := sum.AddScaled(sd, 1); err != nil {
			t.Fatal(err)
		}
	}
	sum.Scale(1 / float32(len(decoded)))
	return sum
}

// sequentialMean ingests streams in order through a fresh P-shard
// aggregator and returns its mean.
func sequentialMean(t testing.TB, p int, streams [][]byte) *tensor.StateDict {
	t.Helper()
	sh := New(Config{Shards: p, Pool: sched.NewPool(2)})
	for i, s := range streams {
		ingest(t, sh, uint32(i), 1, frame(t, s))
	}
	mean, n := sh.Mean()
	if n != len(streams) {
		t.Fatalf("P=%d folded %d, want %d", p, n, len(streams))
	}
	return mean
}

// mustEqualBits fails unless got and want are the same dict bit for bit.
func mustEqualBits(t testing.TB, what string, got, want *tensor.StateDict) {
	t.Helper()
	diff, err := want.MaxAbsDiff(got)
	if err != nil {
		t.Fatalf("%s: structure mismatch: %v", what, err)
	}
	if diff != 0 || !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatalf("%s: max abs diff %g, want bit-for-bit identity", what, diff)
	}
}

// TestShardedConformance is the correctness anchor: sequentially
// ingesting the same streams, the single-shard aggregator produces a mean
// BIT-FOR-BIT identical to the manual fold of the core.Decompress'ed
// updates — same adopt-first semantics, same fold kernel, same fold order,
// same final divide — and P ∈ {2, 4} shards produce the same bits as P = 1.
// Both hold on the fold kernel and on the Go loop.
func TestShardedConformance(t *testing.T) {
	const n = 6
	streams, decoded := compressUpdates(t, n)

	lanes.BothPaths(func(path string) {
		single := sequentialMean(t, 1, streams)
		mustEqualBits(t, path+": P=1 vs manual fold", single, manualFold(t, decoded))
		for _, p := range []int{2, 4} {
			got := sequentialMean(t, p, streams)
			mustEqualBits(t, fmt.Sprintf("%s: P=%d vs P=1", path, p), got, single)
			core.Release(got)
		}
	})
}

// TestShardedConformanceConcurrent ingests concurrently, where only the
// per-tensor fold order may differ from the sequential fold — a float
// reassociation bounded well below the codec's own error bound. The
// asserted tolerance (1e-5) is the documented weighted-merge tolerance
// from the README's scale-out section. Both hold on the fold kernel and on
// the Go loop.
func TestShardedConformanceConcurrent(t *testing.T) {
	const n = 8
	streams, decoded := compressUpdates(t, n)
	lanes.BothPaths(func(path string) {
		want := sequentialMean(t, 1, streams)
		mustEqualBits(t, path+": P=1 vs manual fold", want, manualFold(t, decoded))

		for _, p := range []int{1, 2, 4} {
			sh := New(Config{Shards: p, Pool: sched.NewPool(4)})
			var wg sync.WaitGroup
			for i, s := range streams {
				wg.Add(1)
				go func(i int, framed []byte) {
					defer wg.Done()
					ingest(t, sh, uint32(i), 1, framed)
				}(i, frame(t, s))
			}
			wg.Wait()
			got, gn := sh.Mean()
			if gn != n {
				t.Fatalf("%s: P=%d folded %d, want %d", path, p, gn, n)
			}
			diff, err := want.MaxAbsDiff(got)
			if err != nil {
				t.Fatal(err)
			}
			if diff > 1e-5 {
				t.Fatalf("%s: P=%d concurrent fold diverged: max abs diff %g > 1e-5", path, p, diff)
			}
			core.Release(got)
		}
	})
}

// TestShardedWeighted checks the weighted merge: ingesting updates at
// weights 2 and 3 must equal the manual (2a + 3b)/5.
func TestShardedWeighted(t *testing.T) {
	streams, decoded := compressUpdates(t, 2)
	sh := New(Config{Shards: 2})
	ingest(t, sh, 0, 2, frame(t, streams[0]))
	ingest(t, sh, 1, 3, frame(t, streams[1]))
	got, n := sh.Mean()
	if n != 2 {
		t.Fatalf("folded %d, want 2", n)
	}
	if ws := sh.WeightSum(); ws != 5 {
		t.Fatalf("WeightSum = %v, want 5", ws)
	}

	want := decoded[0].Clone()
	want.Scale(2)
	if err := want.AddScaled(decoded[1], 3); err != nil {
		t.Fatal(err)
	}
	want.Scale(float32(1.0 / 5.0))
	diff, err := want.MaxAbsDiff(got)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-6 {
		t.Fatalf("weighted mean off by %g", diff)
	}
	core.Release(got)
}

// TestMeanDivideMatchesFloat32 pins Mean's one divide: an unweighted fold has
// wsum == n, and float32(1/float64(n)) must be the float32 quotient
// 1/float32(n) the hand-rolled reference folds scale by — rounding a division
// through float64 first is innocuous (53 ≥ 2·24 + 2 bits).
func TestMeanDivideMatchesFloat32(t *testing.T) {
	ns := []int{1, 2, 3, 7, 10, 127, 1<<24 - 1}
	rng := rand.New(rand.NewPCG(24, 1))
	for i := 0; i < 10_000; i++ {
		ns = append(ns, 1+rng.IntN(1<<24-1))
	}
	for _, n := range ns {
		if got, want := float32(1/float64(n)), 1/float32(n); got != want {
			t.Errorf("n=%d: float32(1/float64(n)) = %g, 1/float32(n) = %g", n, got, want)
		}
	}
}

// TestShardedDelta routes v3 residual sections: the shard decode must
// fold the reference back in, and an epoch mismatch must surface as
// ErrReference (renegotiable), never ErrCorrupt.
func TestShardedDelta(t *testing.T) {
	ref := clientUpdate(99)
	// A small perturbation of the reference, so residual encoding wins and
	// the encoder actually emits delta sections.
	upd := ref.Clone()
	rng := rand.New(rand.NewPCG(7, 7^0xD317A))
	for _, e := range upd.Entries() {
		for i := range e.Tensor.Data {
			e.Tensor.Data[i] += float32(1e-3 * rng.NormFloat64())
		}
	}
	stream, _, err := core.Compress(upd, core.Options{LossyParams: ebcl.Rel(1e-2), Reference: ref, RefEpoch: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.DecompressWith(context.Background(), nil, stream, core.DecodeOptions{Reference: ref, RefEpoch: 7})
	if err != nil {
		t.Fatal(err)
	}

	sh := New(Config{Shards: 2})
	_, dstats, err := sh.IngestStream(context.Background(), 1, 1, core.DecodeOptions{Reference: ref, RefEpoch: 7}, bytes.NewReader(frame(t, stream)))
	if err != nil {
		t.Fatal(err)
	}
	if dstats.DeltaTensors == 0 {
		t.Fatal("no residual sections routed; fixture did not exercise delta")
	}
	got, _ := sh.Mean()
	diff, err := want.MaxAbsDiff(got)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Fatalf("delta fold differs from whole-stream decode: %g", diff)
	}
	core.Release(got)

	// Wrong epoch: ErrReference, accumulator untouched.
	sh2 := New(Config{Shards: 2})
	_, _, err = sh2.IngestStream(context.Background(), 1, 1, core.DecodeOptions{Reference: ref, RefEpoch: 8}, bytes.NewReader(frame(t, stream)))
	if !errors.Is(err, core.ErrReference) {
		t.Fatalf("epoch mismatch err = %v, want ErrReference", err)
	}
	if errors.Is(err, core.ErrCorrupt) {
		t.Fatal("epoch mismatch classified as corruption")
	}
	if n := folded(sh2); n != 0 {
		t.Fatalf("failed update folded: count %d", n)
	}
}

// TestShardedCorruptAtomicity flips a byte mid-stream: the update must
// fail with ErrCorrupt and fold NOTHING, even though earlier sections
// were already decodable — the staged-commit atomicity guarantee.
func TestShardedCorruptAtomicity(t *testing.T) {
	streams, _ := compressUpdates(t, 2)
	sh := New(Config{Shards: 2})
	ingest(t, sh, 0, 1, frame(t, streams[0]))

	framed := frame(t, streams[1])
	framed[len(framed)-3] ^= 0x40 // damage the trailer
	_, _, err := sh.IngestStream(context.Background(), 1, 1, core.DecodeOptions{}, bytes.NewReader(framed))
	if !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if n := folded(sh); n != 1 {
		t.Fatalf("corrupt update folded: count %d, want 1", n)
	}

	// The undamaged copy still folds afterwards.
	ingest(t, sh, 1, 1, frame(t, streams[1]))
	if n := folded(sh); n != 2 {
		t.Fatalf("count %d after recovery, want 2", n)
	}
}

// TestShardedStructureMismatch: a later update whose structure differs from
// the adopted one — a tensor's name or length, the path flags, or the
// metadata partition — is refused as ErrCorrupt, leaves the mean unchanged
// bit for bit and hands back every pooled float buffer it took.
func TestShardedStructureMismatch(t *testing.T) {
	type entry struct {
		name string
		kind tensor.Kind
		n    int
	}
	const w, b = tensor.KindWeight, tensor.KindBias
	dict := func(es ...entry) []byte {
		rng := rand.New(rand.NewPCG(7, 7))
		sd := tensor.NewStateDict()
		for _, e := range es {
			sd.Add(e.name, e.kind, tensor.FromData(eblctest.WeightLike(rng, e.n), e.n))
		}
		return frame(t, mustCompress(t, sd))
	}
	adopted := dict(entry{"a.weight", w, 4096}, entry{"b.weight", w, 2048}, entry{"c.biases", b, 16})
	for name, framed := range map[string][]byte{
		"tensor-name":   dict(entry{"a.weight", w, 4096}, entry{"x.weight", w, 2048}, entry{"c.biases", b, 16}),
		"tensor-length": dict(entry{"a.weight", w, 4096}, entry{"b.weight", w, 1024}, entry{"c.biases", b, 16}),
		"path-flags":    dict(entry{"c.biases", b, 16}, entry{"a.weight", w, 4096}, entry{"b.weight", w, 2048}),
		"metadata":      dict(entry{"a.weight", w, 4096}, entry{"b.weight", w, 2048}, entry{"x.biases", b, 16}),
	} {
		t.Run(name, func(t *testing.T) {
			sh := New(Config{Shards: 2, Pool: sched.NewPool(2)})
			ingest(t, sh, 0, 1, adopted)
			before, _ := sh.Mean()
			hits0, misses0 := sched.FloatPoolCounters()
			puts0 := sched.FloatPoolPuts()
			_, _, err := sh.IngestStream(context.Background(), 1, 1, core.DecodeOptions{}, bytes.NewReader(framed))
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("IngestStream: %v, want ErrCorrupt", err)
			}
			hits1, misses1 := sched.FloatPoolCounters()
			if got, put := (hits1+misses1)-(hits0+misses0), sched.FloatPoolPuts()-puts0; got != put {
				t.Fatalf("refused update took %d float buffers and returned %d", got, put)
			}
			after, _ := sh.Mean()
			mustEqualBits(t, "mean after the refused update", after, before)
		})
	}
}

// TestShardedDedupAcrossSessions is the at-least-once regression: the
// same client uploading the same update on two separate sessions (the
// retry-after-lost-ack pattern) must fold exactly once, and the duplicate
// must still be acked as success.
func TestShardedDedupAcrossSessions(t *testing.T) {
	streams, decoded := compressUpdates(t, 1)
	sh := New(Config{Shards: 2, DedupByClient: true})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: sh, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for session := 0; session < 2; session++ {
		c := &flserve.Client{Addr: srv.Addr().String()}
		if err := c.Upload(context.Background(), 42, streams[0]); err != nil {
			t.Fatalf("session %d upload: %v", session, err)
		}
	}
	if n := folded(sh); n != 1 {
		t.Fatalf("duplicate across sessions folded %d times, want 1", n)
	}
	got, _ := sh.Mean()
	diff, err := decoded[0].MaxAbsDiff(got)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Fatalf("dedup mean differs from the single update: %g", diff)
	}
	core.Release(got)
}

// TestTwoTierE2E runs a real root + two edges over TCP: clients upload to
// the edges, the edges forward one fused weighted update each, and the root
// mean must match the flat fold of all five clients within the documented
// tolerance (float reassociation + one extra lossy encode of each edge
// mean at the edge's tighter bound).
func TestTwoTierE2E(t *testing.T) {
	const nA, nB = 3, 2
	streams, decoded := compressUpdates(t, nA+nB)

	rootAgg := New(Config{Shards: 2, Pool: sched.NewPool(2)})
	root, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: rootAgg, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	// An edge is a Sharded behind its own listener, forwarded to the root.
	listenEdge := func() (*Sharded, *flserve.Server) {
		sh := New(Config{Shards: 2, Pool: sched.NewPool(2)})
		srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: sh, Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return sh, srv
	}
	edgeA, srvA := listenEdge()
	edgeB, srvB := listenEdge()
	up := &flserve.Client{Addr: root.Addr().String()}
	opts := core.Options{LossyParams: ebcl.Rel(1e-4)}

	var wg sync.WaitGroup
	upload := func(addr string, client uint32, stream []byte) {
		defer wg.Done()
		c := &flserve.Client{Addr: addr}
		if err := c.Upload(context.Background(), client, stream); err != nil {
			t.Errorf("client %d: %v", client, err)
		}
	}
	for i := 0; i < nA; i++ {
		wg.Add(1)
		go upload(srvA.Addr().String(), uint32(i), streams[i])
	}
	for i := 0; i < nB; i++ {
		wg.Add(1)
		go upload(srvB.Addr().String(), uint32(nA+i), streams[nA+i])
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// An unreachable upstream keeps the accumulator for a later Forward.
	down := &flserve.Client{Addr: "127.0.0.1:1"}
	if w, err := edgeA.Forward(context.Background(), down, 1000, opts); err == nil || w != 0 || folded(edgeA) != nA {
		t.Fatalf("forward to a dead upstream = (%v, %v) with %d folded, want an error and %d kept", w, err, folded(edgeA), nA)
	}
	wA, err := edgeA.Forward(context.Background(), up, 1000, opts)
	if err != nil {
		t.Fatal(err)
	}
	wB, err := edgeB.Forward(context.Background(), up, 1001, opts)
	if err != nil {
		t.Fatal(err)
	}
	if wA != nA || wB != nB {
		t.Fatalf("forwarded weights %v/%v, want %d/%d", wA, wB, nA, nB)
	}
	// A second forward with nothing folded is a no-op, not a zero-weight
	// upload.
	if w, err := edgeA.Forward(context.Background(), up, 1000, opts); err != nil || w != 0 {
		t.Fatalf("empty forward = (%v, %v), want (0, nil)", w, err)
	}

	if n := folded(rootAgg); n != 2 {
		t.Fatalf("root folded %d edge updates, want 2", n)
	}
	if ws := rootAgg.WeightSum(); ws != nA+nB {
		t.Fatalf("root weight sum %v, want %d", ws, nA+nB)
	}
	got, _ := rootAgg.Mean()

	want := sequentialMean(t, 1, streams)
	mustEqualBits(t, "flat P=1 vs manual fold", want, manualFold(t, decoded))
	diff, err := want.MaxAbsDiff(got)
	if err != nil {
		t.Fatalf("root/flat structure mismatch: %v", err)
	}
	// Tolerance: the edge means were re-encoded at REL 1e-4, so each
	// absolute error is bounded by 1e-4·|value| (values are O(1)), plus
	// float reassociation far below that.
	if diff > 1e-3 {
		t.Fatalf("two-tier mean diverged from flat fold: max abs diff %g > 1e-3", diff)
	}
	core.Release(got)
}

// TestOverloadSheds drives far more concurrent uploads than MaxConns +
// QueueDepth can admit: the excess must be shed — classified as ErrShed
// with a retry-after hint, never as corruption or rejection — while the
// admitted updates all fold, and the decode pool must be fully idle after
// the drain.
func TestOverloadSheds(t *testing.T) {
	const clients = 10
	streams, _ := compressUpdates(t, 1)
	pool := sched.NewPool(2)
	sh := New(Config{Shards: 2, Pool: pool})
	gate := make(chan struct{})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{
		Ingestor:       gatedIngestor{sh, gate},
		MaxConns:       1,
		QueueDepth:     2,
		RetryAfterHint: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &flserve.Client{Addr: srv.Addr().String()}
			errs[i] = c.Upload(context.Background(), uint32(i), streams[0])
		}(i)
	}
	// Let the queue fill and the excess shed before releasing the gate.
	time.Sleep(200 * time.Millisecond)
	close(gate)
	wg.Wait()

	shed, ok := 0, 0
	var retryAfter time.Duration
	for i, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, flserve.ErrShed):
			shed++
			var se *flserve.ShedError
			if !errors.As(err, &se) {
				t.Fatalf("client %d: shed not surfaced as *ShedError: %v", i, err)
			}
			retryAfter = se.RetryAfter
		case errors.Is(err, core.ErrCorrupt), errors.Is(err, flserve.ErrRejected):
			t.Fatalf("client %d: shed misclassified: %v", i, err)
		default:
			t.Fatalf("client %d: unexpected error class: %v", i, err)
		}
	}
	if shed == 0 {
		t.Fatal("no client was shed under overload")
	}
	if ok == 0 {
		t.Fatal("no client was admitted under overload")
	}
	if retryAfter != 25*time.Millisecond {
		t.Fatalf("retry-after hint %v, want 25ms", retryAfter)
	}
	if snap := srv.Snapshot(); snap.Shed != shed {
		t.Fatalf("server counted %d sheds, clients saw %d", snap.Shed, shed)
	}
	if n := folded(sh); n != ok {
		t.Fatalf("folded %d, acked %d", folded(sh), ok)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if busy := pool.Busy(); busy != 0 {
		t.Fatalf("pool still busy after drain: %d", busy)
	}
}

// gatedIngestor blocks every ingest until the gate closes — the overload
// test's way of pinning the MaxConns slot.
type gatedIngestor struct {
	inner *Sharded
	gate  chan struct{}
}

func (g gatedIngestor) IngestStream(ctx context.Context, client uint32, weight float64, dopts core.DecodeOptions, r io.Reader) (int64, core.DecompressStats, error) {
	<-g.gate
	return g.inner.IngestStream(ctx, client, weight, dopts, r)
}

// TestShedRetrySucceeds: a client with retries enabled rides out the shed
// using the server's hint and eventually lands its update.
func TestShedRetrySucceeds(t *testing.T) {
	streams, _ := compressUpdates(t, 1)
	sh := New(Config{Shards: 1})
	gate := make(chan struct{})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{
		Ingestor:       gatedIngestor{sh, gate},
		MaxConns:       1,
		QueueDepth:     1,
		RetryAfterHint: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Occupy the serving slot and the queue.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &flserve.Client{Addr: srv.Addr().String()}
			if err := c.Upload(context.Background(), uint32(i), streams[0]); err != nil {
				t.Errorf("pinned client %d: %v", i, err)
			}
		}(i)
	}
	time.Sleep(100 * time.Millisecond)
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(gate)
	}()
	c := &flserve.Client{Addr: srv.Addr().String(), Retries: 20, RetryBackoff: 5 * time.Millisecond}
	if err := c.Upload(context.Background(), 99, streams[0]); err != nil {
		t.Fatalf("retrying client never landed: %v", err)
	}
	wg.Wait()
	if n := folded(sh); n != 3 {
		t.Fatalf("folded %d, want 3", n)
	}
}

// hostileDict is a model whose names all have one length, so a test can
// patch one into another inside a compressed stream: two lossy weights, one
// bias in the metadata partition, and — with extraMeta — a second bias.
func hostileDict(seed uint64, extraMeta bool) *tensor.StateDict {
	rng := rand.New(rand.NewPCG(seed, seed^0xBAD))
	sd := tensor.NewStateDict()
	sd.Add("a.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 4096), 4096))
	sd.Add("b.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 2048), 2048))
	sd.Add("c.biases", tensor.KindBias, tensor.New(16))
	if extraMeta {
		sd.Add("d.biases", tensor.KindBias, tensor.New(16))
	}
	return sd
}

func mustCompress(t testing.TB, sd *tensor.StateDict) []byte {
	t.Helper()
	stream, _, err := core.Compress(sd, core.Options{LossyParams: ebcl.Rel(1e-2)})
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// hostileFirstUpdates builds well-formed-looking streams (every section
// parses, every frame CRC will be valid once framed) whose whole is
// inconsistent — the inputs that, as a round's FIRST update, used to reach
// the accumulator's view assembly and panic the process:
//
//   - dup-lossy: two tensor sections carry the same name;
//   - dup-meta: a tensor section carries a metadata-partition name;
//   - short-meta: the header declares two metadata entries, the metadata
//     partition (spliced in from another stream) holds one.
func hostileFirstUpdates(t testing.TB) map[string][]byte {
	t.Helper()
	patch := func(stream []byte, from, to string) []byte {
		out := bytes.Replace(stream, []byte("\x08"+from), []byte("\x08"+to), 1)
		if bytes.Equal(out, stream) {
			t.Fatalf("name %q not found in stream", from)
		}
		return out
	}
	good := mustCompress(t, hostileDict(1, false))
	long, err := core.Sections(mustCompress(t, hostileDict(2, true)))
	if err != nil {
		t.Fatal(err)
	}
	short, err := core.Sections(good)
	if err != nil {
		t.Fatal(err)
	}
	spliced := append([]byte(nil), long.Header...)
	for _, ts := range long.Tensors {
		spliced = append(spliced, ts...)
	}
	spliced = append(spliced, short.Lossless...)
	return map[string][]byte{
		"dup-lossy":  patch(good, "b.weight", "a.weight"),
		"dup-meta":   patch(good, "b.weight", "c.biases"),
		"short-meta": spliced,
	}
}

// TestHostileFirstUpdate: an inconsistent stream arriving as the round's
// first update must be refused with ErrCorrupt by every decode entry point
// alike, leave the accumulator untouched and every staged buffer returned,
// and the next valid update must be adopted as if nothing had happened.
func TestHostileFirstUpdate(t *testing.T) {
	valid := mustCompress(t, hostileDict(3, false))
	for name, stream := range hostileFirstUpdates(t) {
		t.Run(name, func(t *testing.T) {
			if _, _, err := core.Decompress(stream); !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("core.Decompress: %v, want ErrCorrupt", err)
			}
			if _, _, err := core.DecompressFrom(context.Background(), sched.Default(), bytes.NewReader(stream), core.DecodeOptions{}); !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("core.DecompressFrom: %v, want ErrCorrupt", err)
			}

			pool := sched.NewPool(2)
			sh := New(Config{Shards: 2, Pool: pool})
			hits0, misses0 := sched.FloatPoolCounters()
			puts0 := sched.FloatPoolPuts()
			_, _, err := sh.IngestStream(context.Background(), 1, 1, core.DecodeOptions{}, bytes.NewReader(frame(t, stream)))
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("IngestStream: %v, want ErrCorrupt", err)
			}
			hits1, misses1 := sched.FloatPoolCounters()
			if got, put := (hits1+misses1)-(hits0+misses0), sched.FloatPoolPuts()-puts0; got != put {
				t.Fatalf("rejected update took %d float buffers and returned %d", got, put)
			}
			if n := folded(sh); n != 0 {
				t.Fatalf("hostile update folded: count %d", n)
			}
			if busy := pool.Busy(); busy != 0 {
				t.Fatalf("pool busy after rejection: %d", busy)
			}
			ingest(t, sh, 2, 1, frame(t, valid))
			mean, n := sh.Mean()
			if n != 1 {
				t.Fatalf("valid update after the hostile one: count %d, want 1", n)
			}
			want, _, err := core.Decompress(valid)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualBits(t, "adopted update", mean, want)
		})
	}
}

// TestHostileFirstUpdateLiveServer sends the same streams to a live server
// as the first uploads it ever sees: each must come back as a rejection,
// and the server must keep serving — the connection path has no recover,
// so a panic here takes the process down.
func TestHostileFirstUpdateLiveServer(t *testing.T) {
	pool := sched.NewPool(2)
	sh := New(Config{Shards: 2, Pool: pool})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: sh})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &flserve.Client{Addr: srv.Addr().String()}
	ctx := context.Background()
	hostile := hostileFirstUpdates(t)
	for name, stream := range hostile {
		if err := c.Upload(ctx, 1, stream); !errors.Is(err, flserve.ErrRejected) {
			t.Fatalf("%s: upload error %v, want ErrRejected", name, err)
		}
	}
	if err := c.Upload(ctx, 2, mustCompress(t, hostileDict(3, false))); err != nil {
		t.Fatalf("server did not survive the hostile uploads: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Snapshot(); st.Updates != 1 || st.Rejected != len(hostile) {
		t.Fatalf("stats %+v, want 1 update / %d rejected", st, len(hostile))
	}
	if n := folded(sh); n != 1 {
		t.Fatalf("folded %d updates, want 1", n)
	}
	if busy := pool.Busy(); busy != 0 {
		t.Fatalf("pool busy after drain: %d", busy)
	}
}

// hostileLengthStream is core's splice of the same name built from the
// exported parsers: stream's first tensor blob becomes its own 17-byte sz2
// header, the lossless-stage byte selecting the zstd-like frame, and a frame
// whose literal blob declares 2^63 bytes. Every framing layer and every CRC
// accepts it; the length goes wrong inside the codec, on a pool goroutine.
func hostileLengthStream(t testing.TB, stream []byte) []byte {
	t.Helper()
	secs, err := core.Sections(stream)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := core.ParseHeader(secs.Header)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := core.ParseTensorSection(hdr, secs.Tensors[0])
	if err != nil {
		t.Fatal(err)
	}
	blob := append([]byte(nil), pt.Blob[:17]...)
	blob = append(blob, 1, 0x10, 0, 0, 0, 0)
	blob = binary.AppendUvarint(blob, 1<<63)
	meta := 1 + len(pt.Name) + 2 + 4*len(pt.Shape)
	out := append([]byte(nil), secs.Header...)
	out = ebcl.AppendSection(append(out, secs.Tensors[0][:meta]...), blob)
	for _, rest := range secs.Tensors[1:] {
		out = append(out, rest...)
	}
	return append(out, secs.Lossless...)
}

// TestHostileLengthLiveServer uploads that stream to a live server: the
// client must see a rejection, the accumulator must stay empty, and the next
// valid upload must fold. A panic on the decode goroutine has no recover
// above it, so before the length checks were overflow-safe this upload ended
// the process.
func TestHostileLengthLiveServer(t *testing.T) {
	pool := sched.NewPool(2)
	sh := New(Config{Shards: 2, Pool: pool})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: sh, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &flserve.Client{Addr: srv.Addr().String()}
	ctx := context.Background()
	valid := mustCompress(t, hostileDict(3, false))
	if err := c.Upload(ctx, 1, hostileLengthStream(t, valid)); !errors.Is(err, flserve.ErrRejected) {
		t.Fatalf("hostile upload: %v, want ErrRejected", err)
	}
	if n := folded(sh); n != 0 {
		t.Fatalf("hostile update folded: count %d", n)
	}
	if err := c.Upload(ctx, 2, valid); err != nil {
		t.Fatalf("server did not survive the hostile upload: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Snapshot(); st.Updates != 1 || st.Rejected != 1 {
		t.Fatalf("stats %+v, want 1 update / 1 rejected", st)
	}
	mean, n := sh.Mean()
	if n != 1 {
		t.Fatalf("folded %d updates, want 1", n)
	}
	want, _, err := core.Decompress(valid)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualBits(t, "update folded after the hostile one", mean, want)
	if busy := pool.Busy(); busy != 0 {
		t.Fatalf("pool busy after drain: %d", busy)
	}
}

// FuzzIngestStream feeds arbitrary bytes to the aggregator as a round's
// first update. Seeds are the framed golden corpus (every format version
// and codec) and the hostile first updates above. Whatever arrives, ingest
// must not panic and may fail only with the typed sentinels; a stream that
// folds once must fold again onto itself.
func FuzzIngestStream(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("..", "conformance", "testdata", "*.wire"))
	if err != nil || len(golden) == 0 {
		f.Fatalf("golden corpus not found: %v", err)
	}
	for _, path := range golden {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, stream := range hostileFirstUpdates(f) {
		f.Add(frame(f, stream))
	}
	pool := sched.NewPool(2)
	f.Fuzz(func(t *testing.T, framed []byte) {
		sh := New(Config{Shards: 2, Pool: pool})
		defer sh.Reset()
		for round := 0; round < 2; round++ {
			_, _, err := sh.IngestStream(context.Background(), uint32(round), 1, core.DecodeOptions{}, bytes.NewReader(framed))
			if err != nil {
				if round == 1 {
					t.Fatalf("stream folded once, then failed onto itself: %v", err)
				}
				if !errors.Is(err, core.ErrCorrupt) && !errors.Is(err, core.ErrReference) {
					t.Fatalf("untyped ingest error: %v", err)
				}
				if n := folded(sh); n != 0 {
					t.Fatalf("failed update folded: count %d", n)
				}
				return
			}
		}
		if mean, n := sh.Mean(); n != 2 || mean == nil {
			t.Fatalf("two accepted ingests, count %d", n)
		} else {
			core.Release(mean)
		}
	})
}
