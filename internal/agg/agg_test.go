package agg

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
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

// weightSum is the total aggregation weight sh has folded this round: the
// update count for unweighted traffic, the represented population when
// edges forward weighted fused updates.
func weightSum(sh *Sharded) float64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.wsum
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

// scaleRef multiplies every value of sd by w in a Go loop, in the operand
// order of Go's MULSS: the reference lanes.Scale is held to, kept apart from
// StateDict.Scale (which runs the kernel) so a conformance test does not
// compare the kernel with itself.
func scaleRef(sd *tensor.StateDict, w float32) {
	for _, e := range sd.Entries() {
		for i, v := range e.Tensor.Data {
			e.Tensor.Data[i] = v * w
		}
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
	scaleRef(sum, 1/float32(len(decoded)))
	return sum
}

// sequentialMean ingests streams in order through a fresh aggregator and
// returns its mean.
func sequentialMean(t testing.TB, streams [][]byte) *tensor.StateDict {
	t.Helper()
	sh := New(Config{Pool: sched.NewPool(2)})
	for i, s := range streams {
		ingest(t, sh, uint32(i), 1, frame(t, s))
	}
	mean, n := sh.Mean()
	if n != len(streams) {
		t.Fatalf("folded %d, want %d", n, len(streams))
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
// ingesting the same streams, the aggregator produces a mean BIT-FOR-BIT
// identical to the manual fold of the core.Decompress'ed updates — same
// adopt-first semantics, same fold kernel, same fold order, same final
// divide. It holds on the fold kernel and on the Go loop.
func TestShardedConformance(t *testing.T) {
	const n = 6
	streams, decoded := compressUpdates(t, n)

	lanes.BothPaths(func(path string) {
		got := sequentialMean(t, streams)
		mustEqualBits(t, path+": sequential vs manual fold", got, manualFold(t, decoded))
		core.Release(got)
	})
}

// TestShardedConformanceConcurrent ingests concurrently, where only the
// arrival order may differ from the sequential fold — a float
// reassociation bounded well below the codec's own error bound. The
// asserted tolerance (1e-5) is the documented weighted-merge tolerance
// from the README's scale-out section. Both hold on the fold kernel and on
// the Go loop.
func TestShardedConformanceConcurrent(t *testing.T) {
	const n = 8
	streams, decoded := compressUpdates(t, n)
	lanes.BothPaths(func(path string) {
		want := sequentialMean(t, streams)
		mustEqualBits(t, path+": sequential vs manual fold", want, manualFold(t, decoded))

		sh := New(Config{Pool: sched.NewPool(4)})
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
			t.Fatalf("%s: folded %d, want %d", path, gn, n)
		}
		diff, err := want.MaxAbsDiff(got)
		if err != nil {
			t.Fatal(err)
		}
		if diff > 1e-5 {
			t.Fatalf("%s: concurrent fold diverged: max abs diff %g > 1e-5", path, diff)
		}
		core.Release(got)
	})
}

// TestShardedWeighted checks the weighted merge: ingesting updates at
// weights 2 and 3 must equal the manual (2a + 3b)/5 bit for bit, with the
// adopt's and the mean's scales in a Go loop, on the kernels and on the Go
// loops.
func TestShardedWeighted(t *testing.T) {
	streams, decoded := compressUpdates(t, 2)
	want := decoded[0].Clone()
	scaleRef(want, 2)
	if err := want.AddScaled(decoded[1], 3); err != nil {
		t.Fatal(err)
	}
	scaleRef(want, float32(1.0/5.0))

	lanes.BothPaths(func(path string) {
		sh := New(Config{})
		ingest(t, sh, 0, 2, frame(t, streams[0]))
		ingest(t, sh, 1, 3, frame(t, streams[1]))
		got, n := sh.Mean()
		if n != 2 {
			t.Fatalf("%s: folded %d, want 2", path, n)
		}
		if ws := weightSum(sh); ws != 5 {
			t.Fatalf("%s: weight sum %v, want 5", path, ws)
		}
		mustEqualBits(t, path+": weighted mean", got, want)
		core.Release(got)
	})
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

// BenchmarkMean times Mean and the Release that recycles its buffers, at
// the accumulator shapes of the bench's delta_rounds workload (12 layers of
// 145,833 floats) and round_lan's (AlexNet's weight-tensor proportions over
// 2.4 M floats); MB/s counts the accumulator's bytes.
func BenchmarkMean(b *testing.B) {
	alexnet := []int{34848, 307200, 884736, 663552, 442368, 37748736, 16777216, 4096000}
	total := 0
	for _, n := range alexnet {
		total += n
	}
	var skew []int
	for _, n := range alexnet {
		skew = append(skew, max(64, n*2_400_000/total))
	}
	even := make([]int, 12)
	for i := range even {
		even[i] = 145_833
	}
	for _, shape := range []struct {
		name   string
		layers []int
	}{{"delta_rounds", even}, {"round_lan", skew}} {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(38, 1))
			sd := tensor.NewStateDict()
			params := 0
			for i, n := range shape.layers {
				sd.Add(fmt.Sprintf("layer%d.weight", i), tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, n), n))
				params += n
			}
			sh := New(Config{})
			ingest(b, sh, 0, 1, frame(b, mustCompress(b, sd)))
			ingest(b, sh, 1, 1, frame(b, mustCompress(b, sd)))
			b.SetBytes(int64(4 * params))
			b.ResetTimer()
			for range b.N {
				mean, _ := sh.Mean()
				core.Release(mean)
			}
		})
	}
}

// TestShardedDelta folds v3 residual sections: the decode must
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

	sh := New(Config{})
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
	sh2 := New(Config{})
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
	sh := New(Config{})
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
			sh := New(Config{Pool: sched.NewPool(2)})
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
	sh := New(Config{})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: sh})
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

// TestFoldExcludesLockWait: while one update holds the aggregator's lock, a
// second update's commit waits; its fold observation excludes the hold and
// its fold_wait observation includes it (all of the hold but the update's
// own decode, which runs before the lock: half of it is the margin).
func TestFoldExcludesLockWait(t *testing.T) {
	const hold = 100 * time.Millisecond
	streams, _ := compressUpdates(t, 2)
	sh := New(Config{})
	ingest(t, sh, 0, 1, frame(t, streams[0]))
	fold0, wait0 := sh.m.mergeHist.Sum(), sh.m.waitHist.Sum()
	framed := frame(t, streams[1])
	sh.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ingest(t, sh, 1, 1, framed)
	}()
	time.Sleep(hold)
	sh.mu.Unlock()
	<-done
	if n := sh.m.waitHist.Count(); n != 2 {
		t.Fatalf("fold_wait counted %d commits, want 2", n)
	}
	fold, wait := sh.m.mergeHist.Sum()-fold0, sh.m.waitHist.Sum()-wait0
	if wait < hold.Seconds()/2 {
		t.Errorf("fold_wait %v s, want most of the %v the lock was held", wait, hold)
	}
	if fold >= hold.Seconds()/2 {
		t.Errorf("fold %v s counts the %v the lock was held", fold, hold)
	}
}

// TestTwoTierE2E runs a real root + two edges over TCP: clients upload to
// the edges, the edges forward one fused weighted update each, and the root
// mean must match the flat fold of all five clients within the documented
// tolerance (float reassociation + one extra lossy encode of each edge
// mean at the edge's tighter bound).
func TestTwoTierE2E(t *testing.T) {
	const nA, nB = 3, 2
	streams, decoded := compressUpdates(t, nA+nB)

	rootAgg := New(Config{Pool: sched.NewPool(2)})
	root, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: rootAgg})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	// An edge is a Sharded behind its own listener, forwarded to the root.
	listenEdge := func() (*Sharded, *flserve.Server) {
		sh := New(Config{Pool: sched.NewPool(2)})
		srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: sh})
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
	if ws := weightSum(rootAgg); ws != nA+nB {
		t.Fatalf("root weight sum %v, want %d", ws, nA+nB)
	}
	got, _ := rootAgg.Mean()

	want := sequentialMean(t, streams)
	mustEqualBits(t, "flat fold vs manual fold", want, manualFold(t, decoded))
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
	sh := New(Config{Pool: pool})
	gate := make(chan struct{})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{
		Ingestor:       gatedIngestor{inner: sh, gate: gate},
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
// test's way of pinning the MaxConns slot. A non-nil entered receives one
// value as each ingest starts waiting.
type gatedIngestor struct {
	inner   *Sharded
	gate    chan struct{}
	entered chan<- struct{}
}

func (g gatedIngestor) IngestStream(ctx context.Context, client uint32, weight float64, dopts core.DecodeOptions, r io.Reader) (int64, core.DecompressStats, error) {
	if g.entered != nil {
		g.entered <- struct{}{}
	}
	<-g.gate
	return g.inner.IngestStream(ctx, client, weight, dopts, r)
}

// TestForwardKeepsConcurrentUpdate uploads to an edge while its Forward is
// blocked inside the root's ingest. That update is acked, so it must not be
// wiped by the forward's reset: it folds into the edge's next round, and the
// root receives the weight of the two updates the forward's mean holds.
func TestForwardKeepsConcurrentUpdate(t *testing.T) {
	streams, _ := compressUpdates(t, 3)
	edge := New(Config{Pool: sched.NewPool(2)})
	for i := range 2 {
		ingest(t, edge, uint32(i), 1, frame(t, streams[i]))
	}
	edgeSrv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: edge})
	if err != nil {
		t.Fatal(err)
	}
	defer edgeSrv.Close()
	rootAgg := New(Config{Pool: sched.NewPool(2)})
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	root, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: gatedIngestor{rootAgg, gate, entered}})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	type result struct {
		w   float64
		err error
	}
	fwd := make(chan result, 1)
	go func() {
		w, err := edge.Forward(context.Background(), &flserve.Client{Addr: root.Addr().String()}, 1000, core.Options{LossyParams: ebcl.Rel(1e-4)})
		fwd <- result{w, err}
	}()
	<-entered
	uploaded := make(chan error, 1)
	go func() {
		uploaded <- (&flserve.Client{Addr: edgeSrv.Addr().String()}).Upload(context.Background(), 2, streams[2])
	}()
	// The upload either completes during the forward or waits for it; give
	// it the time to do the first before the root lets the forward finish.
	select {
	case err := <-uploaded:
		uploaded <- err
	case <-time.After(200 * time.Millisecond):
	}
	close(gate)
	if r := <-fwd; r.err != nil || r.w != 2 {
		t.Fatalf("Forward = (%v, %v), want (2, nil)", r.w, r.err)
	}
	if err := <-uploaded; err != nil {
		t.Fatalf("upload during the forward: %v", err)
	}
	if n := folded(edge); n != 1 {
		t.Fatalf("edge holds %d updates after the forward, want the 1 acked during it", n)
	}
	if ws := weightSum(rootAgg); ws != 2 {
		t.Fatalf("root weight sum %v, want 2", ws)
	}
}

// TestUpdatesCounterSkipsDuplicates: fedsz_agg_updates_total counts folds,
// so a client's dropped second update leaves it unchanged, and a Reset lets
// the client fold again.
func TestUpdatesCounterSkipsDuplicates(t *testing.T) {
	streams, _ := compressUpdates(t, 1)
	framed := frame(t, streams[0])
	sh := New(Config{})
	for round, want := range []uint64{1, 2} {
		ingest(t, sh, 7, 1, framed)
		if round == 0 {
			ingest(t, sh, 7, 1, framed)
		}
		if got := sh.m.updates.Value(); got != want {
			t.Fatalf("round %d: updates counter %d, want %d", round, got, want)
		}
		if n := folded(sh); n != 1 {
			t.Fatalf("round %d: folded %d, want 1", round, n)
		}
		sh.Reset()
	}
}

// TestShedRetrySucceeds: a client with retries enabled rides out the shed
// using the server's hint and eventually lands its update.
func TestShedRetrySucceeds(t *testing.T) {
	streams, _ := compressUpdates(t, 1)
	sh := New(Config{})
	gate := make(chan struct{})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{
		Ingestor:       gatedIngestor{inner: sh, gate: gate},
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
// first update must be refused with ErrCorrupt by both section sources
// alike (in memory and wire-framed), leave the accumulator untouched and every staged buffer returned,
// and the next valid update must be adopted as if nothing had happened.
func TestHostileFirstUpdate(t *testing.T) {
	valid := mustCompress(t, hostileDict(3, false))
	for name, stream := range hostileFirstUpdates(t) {
		t.Run(name, func(t *testing.T) {
			if _, _, err := core.Decompress(stream); !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("core.Decompress: %v, want ErrCorrupt", err)
			}

			pool := sched.NewPool(2)
			sh := New(Config{Pool: pool})
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
	sh := New(Config{Pool: pool})
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

// TestWeightOutsideFloat32Rejected uploads one update per FLS3 weight to a
// live server. The fold runs at float32(weight), so a weight that is not a
// positive, finite float32 must come back as a rejection, counted, with
// nothing folded: 1e300 and 3.5e38 round to +Inf (at 1e300 every element
// of the mean came out non-finite) and 1e-50 to zero. The accepted weights
// fold and add up.
func TestWeightOutsideFloat32Rejected(t *testing.T) {
	sh := New(Config{Pool: sched.NewPool(2)})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: sh})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &flserve.Client{Addr: srv.Addr().String()}
	sd, opts := hostileDict(3, false), core.Options{LossyParams: ebcl.Rel(1e-2)}
	for i, row := range []struct {
		weight float64
		ok     bool
	}{
		{0, false}, {-1, false}, {math.NaN(), false}, {math.Inf(1), false},
		{1e300, false}, {3.5e38, false}, {1e-50, false},
		{1, true}, {3, true}, {1 << 24, true},
	} {
		rejected, n := srv.Snapshot().Rejected, folded(sh)
		err := c.UploadWeighted(context.Background(), uint32(i), row.weight, sd, opts, nil)
		switch {
		case row.ok && err != nil:
			t.Fatalf("weight %g: %v, want accepted", row.weight, err)
		case !row.ok && !errors.Is(err, flserve.ErrRejected):
			t.Fatalf("weight %g: %v, want ErrRejected", row.weight, err)
		}
		wantRejected, wantN := rejected+1, n
		if row.ok {
			wantRejected, wantN = rejected, n+1
		}
		if got, gotN := srv.Snapshot().Rejected, folded(sh); got != wantRejected || gotN != wantN {
			t.Fatalf("weight %g: rejected %d, folded %d; want %d and %d", row.weight, got, gotN, wantRejected, wantN)
		}
	}
	if ws := weightSum(sh); ws != 1+3+1<<24 {
		t.Fatalf("weight sum %v, want %v", ws, 1+3+1<<24)
	}
}

// withFirstBlob replaces stream's first tensor blob with blob(pt), pt being
// that tensor section parsed: every framing layer and every CRC accepts the
// result.
func withFirstBlob(t testing.TB, stream []byte, blob func(pt core.ParsedTensor) []byte) []byte {
	t.Helper()
	secs, err := core.Sections(stream)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := core.ParseHeader(secs.Header)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := core.ParseTensorSection(hdr, secs.Tensors[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := 1 + len(pt.Name) + 2 + 4*len(pt.Shape)
	if hdr.IsDelta() {
		meta++ // the section mode byte
	}
	out := append([]byte(nil), secs.Header...)
	out = ebcl.AppendSection(append(out, secs.Tensors[0][:meta]...), blob(pt))
	for _, rest := range secs.Tensors[1:] {
		out = append(out, rest...)
	}
	return append(out, secs.Lossless...)
}

// hostileLengthStream is core's splice of the same name built from the
// exported parsers: stream's first tensor blob becomes its own 17-byte sz2
// header, the lossless-stage byte selecting the zstd-like frame, and a frame
// whose literal blob declares 2^63 bytes. Every framing layer and every CRC
// accepts it; the length goes wrong inside the codec, on a pool goroutine.
func hostileLengthStream(t testing.TB, stream []byte) []byte {
	return withFirstBlob(t, stream, func(pt core.ParsedTensor) []byte {
		blob := append([]byte(nil), pt.Blob[:17]...)
		blob = append(blob, 1, 0x10, 0, 0, 0, 0)
		return binary.AppendUvarint(blob, 1<<63)
	})
}

// TestHostileLengthLiveServer uploads that stream to a live server: the
// client must see a rejection, the accumulator must stay empty, and the next
// valid upload must fold. A panic on the decode goroutine has no recover
// above it, so before the length checks were overflow-safe this upload ended
// the process.
func TestHostileLengthLiveServer(t *testing.T) {
	pool := sched.NewPool(2)
	sh := New(Config{Pool: pool})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: sh})
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
		sh := New(Config{Pool: pool})
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

// finiteDict is a model with one lossy weight and one batch-norm running
// statistic, which travels in the metadata partition.
func finiteDict(seed uint64) *tensor.StateDict {
	rng := rand.New(rand.NewPCG(seed, seed^0xF1))
	sd := tensor.NewStateDict()
	sd.Add("conv.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 4096), 4096))
	stat := tensor.New(16)
	for i := range stat.Data {
		stat.Data[i] = 1 + float32(rng.Float64())
	}
	sd.Add("bn.running_var", tensor.KindRunningStat, stat)
	return sd
}

// TestNonFiniteUpdateRejected uploads two finite updates and three that
// decode to a non-finite value — a NaN weight under an absolute bound, a
// +Inf running statistic in the metadata partition, and a constant-NaN
// tensor stream — to a live server. Each bad one must come back as a
// rejection with nothing folded, so the mean is the finite clients' textbook
// fold bit for bit, and every float buffer taken is returned. The delta
// clients that follow do the same for constant residuals, whose verdict
// comes from the reference's cached extent (see nonFiniteDelta).
func TestNonFiniteUpdateRejected(t *testing.T) {
	opts := core.Options{LossyParams: ebcl.Abs(1e-3)}
	compress := func(sd *tensor.StateDict) []byte {
		stream, _, err := core.Compress(sd, opts)
		if err != nil {
			t.Fatal(err)
		}
		return stream
	}
	nanWeight, infStat := finiteDict(3), finiteDict(4)
	nanWeight.Get("conv.weight").Data[17] = float32(math.NaN())
	infStat.Get("bn.running_var").Data[5] = float32(math.Inf(1))
	good := [][]byte{compress(finiteDict(1)), compress(finiteDict(2))}
	bad := map[string][]byte{
		"nan-weight": compress(nanWeight),
		"inf-stat":   compress(infStat),
		// A constant stream of NaN under the tensor's own codec: no encoder
		// here writes one.
		"constant-nan": withFirstBlob(t, compress(finiteDict(5)), func(pt core.ParsedTensor) []byte {
			return ebcl.AppendConstant(nil, binary.LittleEndian.Uint32(pt.Blob), pt.Elems, float32(math.NaN()))
		}),
	}
	var decoded []*tensor.StateDict
	for _, stream := range good {
		sd, _, err := core.Decompress(stream)
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, sd)
	}
	want := manualFold(t, decoded)

	hits0, misses0 := sched.FloatPoolCounters()
	puts0 := sched.FloatPoolPuts()
	pool := sched.NewPool(2)
	sh := New(Config{Pool: pool})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: sh})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &flserve.Client{Addr: srv.Addr().String()}
	ctx := context.Background()
	if err := c.Upload(ctx, 1, good[0]); err != nil {
		t.Fatal(err)
	}
	id := uint32(10)
	for name, stream := range bad {
		id++
		err := c.Upload(ctx, id, stream)
		if !errors.Is(err, flserve.ErrRejected) || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("%s: upload error %v, want ErrRejected naming the non-finite value", name, err)
		}
	}
	if err := c.Upload(ctx, 2, good[1]); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Snapshot(); st.Updates != 2 || st.Rejected != len(bad) {
		t.Fatalf("stats %+v, want 2 updates / %d rejected", st, len(bad))
	}
	mean, n := sh.Mean()
	if n != 2 {
		t.Fatalf("folded %d updates, want 2", n)
	}
	mustEqualBits(t, "mean of the finite updates", mean, want)
	core.Release(mean)
	sh.Reset()
	hits1, misses1 := sched.FloatPoolCounters()
	if got, put := (hits1+misses1)-(hits0+misses0), sched.FloatPoolPuts()-puts0; got != put {
		t.Fatalf("the round took %d float buffers and returned %d", got, put)
	}
	if busy := pool.Busy(); busy != 0 {
		t.Fatalf("pool busy after drain: %d", busy)
	}
	nonFiniteDelta(t)
}

// nonFiniteDelta is TestNonFiniteUpdateRejected's delta half. Delta clients
// upload to a live server whose reference sits at epoch 1, each a stream
// whose conv.weight is a constant residual of value v. At epoch 1 v = NaN
// and v = +Inf must come back rejected, with the accumulator and the count
// untouched, and v = 0 and v = ±1e38 fold. The reference then advances to
// epoch 2 in the same storage, gaining the elements ±3e38, so that
// v = ±1e38 overflows against one of them: both must be rejected there,
// which the cached extent of epoch 1 would have let through.
func nonFiniteDelta(t *testing.T) {
	opts := core.Options{LossyParams: ebcl.Abs(1e-3)}
	base, huge := finiteDict(6), finiteDict(7)
	huge.Get("conv.weight").Data[9] = 3e38
	huge.Get("conv.weight").Data[10] = -3e38
	var holder delta.Ref
	e1 := holder.Set(base) // the holder's copy stays out
	hits0, misses0 := sched.FloatPoolCounters()
	puts0 := sched.FloatPoolPuts()
	pool := sched.NewPool(2)
	sh := New(Config{Pool: pool})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: sh, RefProvider: holder.Provider()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &flserve.Client{Addr: srv.Addr().String()}
	ctx := context.Background()
	// constant returns a stream at epoch whose conv.weight is a constant
	// residual of v: base encoded against itself (the encoder's constant
	// stream of 0), then that blob replaced by v's. Only the epoch ties it to
	// the server's reference.
	constant := func(epoch uint32, v float32) []byte {
		o := opts
		o.Reference, o.RefEpoch = base, epoch
		stream, st, err := core.Compress(base, o)
		if err != nil {
			t.Fatal(err)
		}
		if st.ConstantResiduals != 1 {
			t.Fatalf("%d constant residuals, want conv.weight's", st.ConstantResiduals)
		}
		return withFirstBlob(t, stream, func(pt core.ParsedTensor) []byte {
			return ebcl.AppendConstant(nil, binary.LittleEndian.Uint32(pt.Blob), pt.Elems, v)
		})
	}
	upload := func(epoch uint32, id uint32, stream []byte) error {
		s, err := c.DialDelta(ctx, epoch)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if !s.DeltaAccepted() {
			t.Fatalf("server refused delta epoch %d", epoch)
		}
		return s.Upload(ctx, id, stream)
	}
	// round uploads each stream at epoch, wants exactly the ones named in ok
	// folded and the others rejected, and checks the mean against the
	// textbook fold of the accepted ones.
	round := func(epoch uint32, ref *tensor.StateDict, streams map[string][]byte, ok ...string) {
		t.Helper()
		var decoded []*tensor.StateDict
		id := epoch * 100
		for _, name := range ok {
			id++
			if err := upload(epoch, id, streams[name]); err != nil {
				t.Fatalf("epoch %d %s: %v", epoch, name, err)
			}
			sd, _, err := core.DecompressWith(ctx, nil, streams[name], core.DecodeOptions{Reference: ref, RefEpoch: epoch})
			if err != nil {
				t.Fatal(err)
			}
			decoded = append(decoded, sd)
			delete(streams, name)
		}
		for name, stream := range streams {
			id++
			err := upload(epoch, id, stream)
			if !errors.Is(err, flserve.ErrRejected) || !strings.Contains(err.Error(), "non-finite") {
				t.Fatalf("epoch %d %s: upload error %v, want ErrRejected naming the non-finite value", epoch, name, err)
			}
		}
		mean, n := sh.Mean()
		if n != len(ok) {
			t.Fatalf("epoch %d: folded %d updates, want %d", epoch, n, len(ok))
		}
		mustEqualBits(t, fmt.Sprintf("epoch %d mean", epoch), mean, manualFold(t, decoded))
		core.Release(mean)
		for _, sd := range decoded {
			core.Release(sd)
		}
		sh.Reset()
	}

	ref1, _, _ := holder.Get()
	storage := &ref1.Get("conv.weight").Data[0]
	round(e1, ref1, map[string][]byte{
		"v 0":     constant(e1, 0),
		"v NaN":   constant(e1, float32(math.NaN())),
		"v +Inf":  constant(e1, float32(math.Inf(1))),
		"v 1e38":  constant(e1, 1e38),
		"v -1e38": constant(e1, -1e38),
	}, "v 0", "v 1e38", "v -1e38")

	e2 := holder.Set(huge)
	ref2, _, _ := holder.Get()
	if &ref2.Get("conv.weight").Data[0] != storage {
		t.Fatal("the reference moved to new storage; the test needs it in place")
	}
	round(e2, ref2, map[string][]byte{
		"v 0":     constant(e2, 0),
		"v NaN":   constant(e2, float32(math.NaN())),
		"v 1e38":  constant(e2, 1e38),
		"v -1e38": constant(e2, -1e38),
	}, "v 0")

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := sched.FloatPoolCounters()
	if got, put := (hits1+misses1)-(hits0+misses0), sched.FloatPoolPuts()-puts0; got != put {
		t.Fatalf("the delta rounds took %d float buffers and returned %d", got, put)
	}
}

// TestForwardRefusesNonFiniteMean folds two finite running statistics of
// 3e38 at an edge: their float32 sum overflows to +Inf, so the mean is not
// finite. Forward must return an error before it dials, keeping both
// updates, and the root must never see a connection.
func TestForwardRefusesNonFiniteMean(t *testing.T) {
	edge := New(Config{Pool: sched.NewPool(2)})
	for i := range 2 {
		sd := finiteDict(uint64(i) + 1)
		stat := sd.Get("bn.running_var").Data
		for j := range stat {
			stat[j] = 3e38
		}
		ingest(t, edge, uint32(i), 1, frame(t, mustCompress(t, sd)))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			conn.Close()
		}
	}()
	up := &flserve.Client{Addr: ln.Addr().String()}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	w, err := edge.Forward(ctx, up, 1000, core.Options{LossyParams: ebcl.Rel(1e-4)})
	ln.Close()
	<-done
	if err == nil || w != 0 {
		t.Fatalf("Forward = (%v, %v), want an error", w, err)
	}
	if n := folded(edge); n != 2 {
		t.Fatalf("edge holds %d updates after the refused forward, want 2", n)
	}
	if n := accepted.Load(); n != 0 {
		t.Fatalf("the root accepted %d connections, want none", n)
	}
}
