package fl

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ebcl"
	"repro/internal/lanes"
	"repro/internal/nn/models"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// newFederation builds one mini-AlexNet client per shard of a scaled
// CIFAR10-like task with side-px images, nTrain training and nTest test
// samples.
func newFederation(transport Transport, seed uint64, side, nTrain, nTest int, shard func(*dataset.Dataset) []*dataset.Dataset) (*Federation, error) {
	cfg, err := dataset.ScaledConfig("cifar10", side, nTrain, nTest, seed)
	if err != nil {
		return nil, err
	}
	train, test := dataset.Generate(cfg)
	shards := shard(train)
	in := models.Input{Channels: cfg.Channels, Height: cfg.Height, Width: cfg.Width, Classes: cfg.Classes}
	rng := rand.New(rand.NewPCG(seed, 1))
	global, err := models.BuildMini("alexnet", rng, in)
	if err != nil {
		return nil, err
	}
	clients := make([]*Client, len(shards))
	for i := range clients {
		crng := rand.New(rand.NewPCG(seed, uint64(i)+10))
		net, err := models.BuildMini("alexnet", crng, in)
		if err != nil {
			return nil, err
		}
		clients[i] = NewClient(i, net, shards[i], 16, 0.02, seed)
	}
	return NewFederation(global, clients, transport, test), nil
}

// iid shards a dataset IID over n clients.
func iid(n int, seed uint64) func(*dataset.Dataset) []*dataset.Dataset {
	return func(d *dataset.Dataset) []*dataset.Dataset { return dataset.ShardIID(d, n, seed) }
}

// newTestFederation assembles a 4-client federation (the paper's client
// count) on a scaled CIFAR10-like task.
func newTestFederation(transport Transport, seed uint64) (*Federation, error) {
	return newFederation(transport, seed, 12, 192, 64, iid(4, seed))
}

// convergenceRounds is the fixture's round count: enough for the FedAvg
// convergence assertions, shared by every multi-round test below.
const convergenceRounds = 12

// convergenceFixture caches one raw and one FedSZ federation run at seed
// 42 so the three multi-round convergence tests train once instead of
// four times — the shared model/dataset fixture that keeps the full
// (non-short) suite fast. Tests only read from it.
type convergenceFixture struct {
	rawInitial float64
	raw        []*RoundResult
	fedsz      []*RoundResult
	err        error
}

var convergence = sync.OnceValue(func() *convergenceFixture {
	fx := &convergenceFixture{}
	fedRaw, err := newTestFederation(Raw, 42)
	if err != nil {
		fx.err = err
		return fx
	}
	fx.rawInitial = fedRaw.Evaluate()
	if fx.raw, err = fedRaw.Run(context.Background(), convergenceRounds, 1); err != nil {
		fx.err = err
		return fx
	}
	fedSZ, err := newTestFederation(FedSZ(core.Options{LossyParams: ebcl.Rel(1e-2)}), 42)
	if err != nil {
		fx.err = err
		return fx
	}
	fx.fedsz, fx.err = fedSZ.Run(context.Background(), convergenceRounds, 1)
	return fx
})

// convergenceFx returns the shared fixture, skipping in short mode (the
// smoke tests cover the round pipeline there).
func convergenceFx(t *testing.T) *convergenceFixture {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-round convergence fixture; TestRoundPipelineSmoke covers the short suite")
	}
	fx := convergence()
	if fx.err != nil {
		t.Fatal(fx.err)
	}
	return fx
}

// scaleRef multiplies every value of sd by w in a Go loop: the reference
// lanes.Scale is held to, kept apart from StateDict.Scale (which runs the
// kernel) so a conformance test does not compare the kernel with itself.
func scaleRef(sd *tensor.StateDict, w float32) {
	for _, e := range sd.Entries() {
		for i, v := range e.Tensor.Data {
			e.Tensor.Data[i] = v * w
		}
	}
}

// TestRawTransportRoundTrip: the raw arm carries updates exactly and folds
// them in agg.Sharded's order. Three untrained clients upload the global
// model g itself, so the new global must be ((g + g) + g) · (1/3) bit for
// bit — g + g is exact, so the sum is g · 3 rounded once — where a fold
// that scaled each update first would round differently.
func TestRawTransportRoundTrip(t *testing.T) {
	fed := shardedSmokeFederation(t, Raw, 1, 3, iid(3, 1))
	g := fed.Global.StateDict()
	res, err := fed.RunRound(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Clone()
	scaleRef(want, 3)
	scaleRef(want, 1/float32(3))
	if res.RawBytes != 3*g.SizeBytes() || !bytes.Equal(fed.Global.StateDict().Marshal(), want.Marshal()) {
		t.Fatalf("raw round: %d raw bytes for three %d-byte dicts, or not the exact fold", res.RawBytes, g.SizeBytes())
	}
}

func TestFedAvgImprovesAccuracy(t *testing.T) {
	fx := convergenceFx(t)
	final := fx.raw[len(fx.raw)-1].Accuracy
	if final < fx.rawInitial+0.2 {
		t.Fatalf("accuracy %f -> %f: FedAvg did not learn", fx.rawInitial, final)
	}
	// Timing and byte accounting sanity.
	r := fx.raw[0]
	if r.RawBytes <= 0 || r.WireBytes <= 0 {
		t.Fatal("byte accounting missing")
	}
	if r.Timings.Train <= 0 || r.Timings.Validate <= 0 {
		t.Fatal("timings missing")
	}
	// Raw transport: wire bytes ≈ raw bytes + small framing.
	if r.WireBytes < r.RawBytes {
		t.Fatal("raw transport cannot shrink data")
	}
}

func TestFedSZTransportShrinksUpdatesAndPreservesLearning(t *testing.T) {
	fx := convergenceFx(t)
	r := fx.fedsz[0]
	ratio := float64(r.RawBytes) / float64(r.WireBytes)
	if ratio < 3 {
		t.Errorf("wire ratio %.2f, want >= 3", ratio)
	}
	if r.Timings.Compress <= 0 || r.Timings.Decompress <= 0 {
		t.Error("compression timings missing")
	}
	final := fx.fedsz[len(fx.fedsz)-1].Accuracy
	if final < 0.5 {
		t.Errorf("compressed federation accuracy %.2f, want >= 0.5", final)
	}
}

func TestCompressedMatchesUncompressedWithinHalfPercentShape(t *testing.T) {
	fx := convergenceFx(t)
	// The paper's headline claim at REL 1e-2: compressed accuracy within
	// ~0.5% of uncompressed after 50 rounds. At this micro scale (12 px,
	// 12 rounds) training noise is larger than 0.5%, so assert a loose
	// band (10 points at convergence) — the experiments harness runs the
	// full version.
	rawAcc := fx.raw[len(fx.raw)-1].Accuracy
	szAcc := fx.fedsz[len(fx.fedsz)-1].Accuracy
	if rawAcc-szAcc > 0.10 {
		t.Errorf("compression cost %.3f accuracy (raw %.3f, fedsz %.3f)", rawAcc-szAcc, rawAcc, szAcc)
	}
	t.Logf("raw=%.3f fedsz=%.3f", rawAcc, szAcc)
}

// smokeFederation is a deliberately tiny build (2 clients, 10 px images,
// 48 samples) so the short suite still executes the full round pipeline:
// broadcast → train → upload → aggregate → eval.
func smokeFederation(t *testing.T, transport Transport, seed uint64) *Federation {
	return shardedSmokeFederation(t, transport, seed, 2, iid(2, seed))
}

// shardedSmokeFederation builds one client per shard over 24 samples per
// client.
func shardedSmokeFederation(t *testing.T, transport Transport, seed uint64, nClients int, shard func(*dataset.Dataset) []*dataset.Dataset) *Federation {
	t.Helper()
	fed, err := newFederation(transport, seed, 10, 24*nClients, 16, shard)
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

// TestRoundPipelineSmoke is the 2-round fast variant that always runs: it
// exercises every phase of the round for both transports and checks the
// accounting invariants, without waiting for convergence.
func TestRoundPipelineSmoke(t *testing.T) {
	for _, tc := range []struct {
		name      string
		transport Transport
	}{
		{"raw", Raw},
		{"fedsz", FedSZ(core.Options{LossyParams: ebcl.Rel(1e-2)})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fed := smokeFederation(t, tc.transport, 42)
			results, err := fed.Run(context.Background(), 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 2 {
				t.Fatalf("got %d rounds", len(results))
			}
			for _, r := range results {
				if r.RawBytes <= 0 || r.WireBytes <= 0 {
					t.Fatal("byte accounting missing")
				}
				if r.Timings.Train <= 0 || r.Timings.Decompress <= 0 || r.Timings.Validate <= 0 {
					t.Fatalf("timings missing: %+v", r.Timings)
				}
			}
		})
	}
}

// TestRoundPipelineNonIIDSmoke runs the same 2-round pipeline over a
// label-split partition — client 0 holds only the lower half of the
// classes, client 1 only the upper half: federated rounds must complete
// with intact accounting even when client label distributions are
// disjoint, the far end of the non-IID regime FedAvg is usually stressed
// under.
func TestRoundPipelineNonIIDSmoke(t *testing.T) {
	const seed = 42
	fed := shardedSmokeFederation(t, FedSZ(core.Options{LossyParams: ebcl.Rel(1e-2)}), seed, 2,
		func(d *dataset.Dataset) []*dataset.Dataset {
			plane := d.X.NumElems() / d.Len()
			var data [2][]float32
			var labels [2][]int
			for i, l := range d.Labels {
				c := 2 * l / d.Spec.Classes
				data[c] = append(data[c], d.X.Data[i*plane:(i+1)*plane]...)
				labels[c] = append(labels[c], l)
			}
			shards := make([]*dataset.Dataset, 2)
			for c := range shards {
				if len(labels[c]) == 0 {
					t.Fatalf("label split left client %d empty", c)
				}
				x := tensor.FromData(data[c], len(labels[c]), d.Spec.Channels, d.Spec.Height, d.Spec.Width)
				shards[c] = &dataset.Dataset{Spec: d.Spec, X: x, Labels: labels[c]}
			}
			return shards
		})
	results, err := fed.Run(context.Background(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.RawBytes <= 0 || r.WireBytes <= 0 {
			t.Fatal("byte accounting missing")
		}
	}
}

// seamCase is one transport the round must serve.
type seamCase struct {
	name       string
	raw, delta bool
}

var seamCases = []seamCase{{name: "raw", raw: true}, {name: "fedsz"}, {name: "fedsz+delta", delta: true}}

var seamOpts = core.Options{LossyParams: ebcl.Rel(1e-2)}

func (c seamCase) transport() Transport {
	if c.raw {
		return Raw
	}
	tr := FedSZ(seamOpts)
	tr.Delta = c.delta
	return tr
}

// reference carries one state dict through the pipeline the transport
// stands for — marshal/unmarshal, or core.CompressWith/DecompressWith on
// their own (against ref at epoch for the delta case) — and returns the
// decoded dict, the payload size and the residual section count.
func (c seamCase) reference(sd, ref *tensor.StateDict, epoch uint32) (*tensor.StateDict, int, int, error) {
	if c.raw {
		payload := sd.Marshal()
		got, err := tensor.UnmarshalStateDict(payload)
		return got, len(payload), 0, err
	}
	opts, dopts := seamOpts, core.DecodeOptions{}
	if c.delta {
		opts.Reference, opts.RefEpoch = ref, epoch
		dopts = core.DecodeOptions{Reference: ref, RefEpoch: epoch}
	}
	stream, stats, err := core.CompressWith(context.Background(), sched.Default(), sd, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	got, _, err := core.DecompressWith(context.Background(), sched.Default(), stream, dopts)
	return got, len(stream), stats.DeltaTensors, err
}

// seamRound is one round of a seam case's federation beside what the
// reference pipeline makes of the same client updates.
type seamRound struct {
	res              *RoundResult
	global, want     []byte // the global model after the round; the textbook fold of the reference decodes
	raw, wire, delta int    // the reference pipeline's accounting
}

// floatLedger counts the pooled float buffers the rounds it runs take and
// hand back.
type floatLedger struct{ took, put uint64 }

func (l *floatLedger) round(ctx context.Context, fed *Federation, round, localEpochs int) (*RoundResult, error) {
	hits0, misses0 := sched.FloatPoolCounters()
	puts0 := sched.FloatPoolPuts()
	res, err := fed.RunRound(ctx, round, localEpochs)
	hits1, misses1 := sched.FloatPoolCounters()
	l.took, l.put = l.took+hits1+misses1-hits0-misses0, l.put+sched.FloatPoolPuts()-puts0
	return res, err
}

// run trains the case's smoke federation for rounds rounds at GOMAXPROCS
// procs. After each round it carries every client's update through the
// reference pipeline and folds the decodes the textbook way: adopt the
// first, StateDict.AddScaled each later one, divide by the count.
func (c seamCase) run(t *testing.T, procs, rounds int, ledger *floatLedger) (*Federation, []seamRound) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fed := smokeFederation(t, c.transport(), 42)
	out := make([]seamRound, rounds)
	for round := range out {
		ref := fed.Global.StateDict()
		res, err := ledger.round(context.Background(), fed, round, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := &out[round]
		r.res, r.global = res, fed.Global.StateDict().Marshal()
		var sum *tensor.StateDict
		for _, cl := range fed.Clients {
			sd := cl.Net.StateDict()
			got, n, nDelta, err := c.reference(sd, ref, uint32(round)+1)
			if err != nil {
				t.Fatal(err)
			}
			if sum == nil {
				sum = got
			} else if err := sum.AddScaled(got, 1); err != nil {
				t.Fatal(err)
			}
			r.raw, r.wire, r.delta = r.raw+sd.SizeBytes(), r.wire+n, r.delta+nDelta
		}
		scaleRef(sum, 1/float32(len(fed.Clients)))
		r.want = sum.Marshal()
	}
	return fed, out
}

// cancelAt is a context that cancels itself at its n-th Err call (never
// for n = 0) and counts the calls it sees.
type cancelAt struct {
	context.Context
	cancel context.CancelFunc
	n      int64
	calls  atomic.Int64
}

func (c *cancelAt) Err() error {
	if c.calls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestRoundConformance pins the round for every transport: over two
// trained rounds the global model is the textbook fold of the reference
// pipeline's decodes bit for bit, with exact byte accounting; it does not
// depend on GOMAXPROCS or on whether the lane kernels run (the Go loops'
// rounds are held to the same fold); a round cancelled mid-upload returns
// context.Canceled; and RunRound hands back every pooled float buffer it
// takes, the cancelled round's included.
func TestRoundConformance(t *testing.T) {
	for _, tc := range seamCases {
		t.Run(tc.name, func(t *testing.T) {
			var ledger floatLedger
			fed, one := tc.run(t, 1, 2, &ledger)
			_, two := tc.run(t, 2, 1, &floatLedger{})
			goLoops := one
			lanes.BothPaths(func(path string) {
				if path == "Go" {
					_, goLoops = tc.run(t, 1, 2, &floatLedger{})
				}
			})
			// Two untrained rounds: the first counts a round's context
			// checks, the second is cancelled at the last of them — inside
			// the last client's upload, after the first client has folded.
			count := &cancelAt{Context: context.Background()}
			if _, err := ledger.round(count, fed, 2, 0); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, cancelErr := ledger.round(&cancelAt{Context: ctx, cancel: cancel, n: count.calls.Load()}, fed, 3, 0)

			t.Run("decode", func(t *testing.T) {
				deltaTensors := 0
				for round, r := range append(append(one, two...), goLoops...) {
					if !bytes.Equal(r.global, r.want) {
						t.Fatalf("round %d: global model not bit-identical to the fold of the reference pipeline's decodes", round)
					}
					if r.res.RawBytes != r.raw || r.res.WireBytes != r.wire || r.res.DeltaTensors != r.delta {
						t.Fatalf("round %d: accounting raw %d wire %d delta %d, want %d / %d / %d",
							round, r.res.RawBytes, r.res.WireBytes, r.res.DeltaTensors, r.raw, r.wire, r.delta)
					}
					if r.res.Timings.Compress <= 0 || r.res.Timings.Decompress <= 0 {
						t.Fatalf("round %d: timings missing: %+v", round, r.res.Timings)
					}
					deltaTensors += r.res.DeltaTensors
				}
				if (deltaTensors > 0) != tc.delta {
					t.Fatalf("residual sections %d, want engaged=%v", deltaTensors, tc.delta)
				}
			})

			t.Run("chunking", func(t *testing.T) {
				if !bytes.Equal(one[0].global, two[0].global) {
					t.Fatal("global model differs between GOMAXPROCS 1 and 2")
				}
			})

			t.Run("lanes", func(t *testing.T) {
				for round := range one {
					if !bytes.Equal(one[round].global, goLoops[round].global) {
						t.Fatalf("round %d: global model differs between the lane kernels and the Go loops", round)
					}
				}
			})

			t.Run("cancelled", func(t *testing.T) {
				if !errors.Is(cancelErr, context.Canceled) {
					t.Fatalf("round cancelled mid-upload returned %v, want context.Canceled", cancelErr)
				}
			})

			t.Run("pooled", func(t *testing.T) {
				if ledger.took != ledger.put {
					t.Fatalf("four rounds took %d pooled float buffers and returned %d", ledger.took, ledger.put)
				}
			})
		})
	}
}

func TestClientTrainingReducesLoss(t *testing.T) {
	cfg, _ := dataset.ScaledConfig("fmnist", 12, 64, 16, 5)
	train, _ := dataset.Generate(cfg)
	rng := rand.New(rand.NewPCG(5, 5))
	net, _ := models.BuildMini("alexnet", rng, models.Input{Channels: cfg.Channels, Height: cfg.Height, Width: cfg.Width, Classes: cfg.Classes})
	c := NewClient(0, net, train, 16, 0.02, 5)
	first := c.TrainEpochs(1)
	var last float64
	for i := 0; i < 4; i++ {
		last = c.TrainEpochs(1)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %f -> %f", first, last)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	fed, err := newTestFederation(Raw, 11)
	if err != nil {
		t.Fatal(err)
	}
	a := fed.Evaluate()
	b := fed.Evaluate()
	if a != b {
		t.Fatalf("evaluation not deterministic: %v != %v", a, b)
	}
}

func TestSGDStateIsolatedBetweenClients(t *testing.T) {
	// Two clients starting from the same broadcast and data must produce
	// identical updates (determinism of the whole client path).
	cfg, _ := dataset.ScaledConfig("cifar10", 12, 32, 8, 21)
	train, _ := dataset.Generate(cfg)
	in := models.Input{Channels: cfg.Channels, Height: cfg.Height, Width: cfg.Width, Classes: cfg.Classes}
	mk := func() *Client {
		rng := rand.New(rand.NewPCG(21, 3))
		net, _ := models.BuildMini("alexnet", rng, in)
		return NewClient(0, net, train, 8, 0.02, 99)
	}
	c1, c2 := mk(), mk()
	c1.TrainEpochs(1)
	c2.TrainEpochs(1)
	d, err := c1.Net.StateDict().MaxAbsDiff(c2.Net.StateDict())
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("identical clients diverged by %g", d)
	}
}

var benchSink float64

func BenchmarkFederatedRound(b *testing.B) {
	fed, err := newFederation(FedSZ(core.Options{}), 1, 12, 64, 32, iid(2, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fed.RunRound(context.Background(), i, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res.Accuracy
	}
}
