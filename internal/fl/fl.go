// Package fl implements the federated-learning substrate: FedAvg clients
// and server, round orchestration and per-phase timing — the APPFL/MPI
// stack of the paper replaced by goroutines. A FedSZ round sends every
// update through the server's own path minus the socket: wire.EncodeStream
// into a buffer, agg.Sharded.IngestStream out of it. A round over real
// sockets is internal/flserve + internal/agg (see examples/streaming and
// bench/).
package fl

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Transport is how RunRound carries client updates to the server. Nil Opts
// sends the serialized state dict (Raw); otherwise each update is
// compressed with *Opts into wire frames and decoded and folded by
// agg.Sharded, as a server does.
type Transport struct {
	Opts *core.Options
	// Delta encodes updates as residuals against the global state the
	// clients trained from (falling back to absolute per tensor) and
	// decodes them against the same dict.
	Delta bool
}

// Raw is the uncompressed transport.
var Raw Transport

// FedSZ returns the transport that compresses updates with opts.
func FedSZ(opts core.Options) Transport { return Transport{Opts: &opts} }

// Name identifies the transport in experiment output.
func (t Transport) Name() string {
	if t.Opts == nil {
		return "uncompressed"
	}
	return "fedsz"
}

// Client is one FedAvg participant: a local model, a data shard, and an
// SGD optimizer.
type Client struct {
	Net       *nn.Network
	Data      *dataset.Dataset
	BatchSize int
	Opt       *nn.SGD
	rng       *rand.Rand
}

// NewClient constructs a client around an existing network; id seeds its
// shuffling RNG.
func NewClient(id int, net *nn.Network, data *dataset.Dataset, batchSize int, lr float64, seed uint64) *Client {
	return &Client{
		Net: net, Data: data, BatchSize: batchSize,
		Opt: nn.NewSGD(lr, 0.9, 5e-4),
		rng: rand.New(rand.NewPCG(seed, uint64(id)+1)),
	}
}

// TrainEpochs runs local SGD for the given epoch count and returns the
// final mean loss.
func (c *Client) TrainEpochs(epochs int) float64 {
	var lastLoss float64
	n := c.Data.Len()
	for e := 0; e < epochs; e++ {
		perm := c.rng.Perm(n)
		var epochLoss float64
		batches := 0
		for lo := 0; lo+c.BatchSize <= n; lo += c.BatchSize {
			x, labels := batchByIndex(c.Data, perm[lo:lo+c.BatchSize])
			c.Net.ZeroGrads()
			logits := c.Net.Forward(x, true)
			loss, grad := nn.SoftmaxCrossEntropy(logits, labels)
			c.Net.Backward(grad)
			c.Opt.Step(c.Net.Params())
			epochLoss += loss
			batches++
		}
		if batches > 0 {
			lastLoss = epochLoss / float64(batches)
		}
	}
	return lastLoss
}

func batchByIndex(d *dataset.Dataset, idx []int) (*tensor.Tensor, []int) {
	c, h, w := d.Spec.Channels, d.Spec.Height, d.Spec.Width
	plane := c * h * w
	x := tensor.New(len(idx), c, h, w)
	labels := make([]int, len(idx))
	for i, s := range idx {
		copy(x.Data[i*plane:(i+1)*plane], d.X.Data[s*plane:(s+1)*plane])
		labels[i] = d.Labels[s]
	}
	return x, labels
}

// RoundTimings breaks a communication round into the phases of paper
// Figure 6.
type RoundTimings struct {
	Train time.Duration // max over clients (they run in parallel)
	// Compress sums each client's encode time as the codec measured it
	// (core.Stats.CompressTime). Decompress sums each client's decode and
	// fold, as agg.Sharded.IngestStream's DecompressTime measures it. The
	// uploads run one at a time after training has finished, so neither
	// includes time spent contending with sibling clients' training.
	Compress   time.Duration
	Decompress time.Duration
	Validate   time.Duration
}

// RoundResult reports one FedAvg communication round.
type RoundResult struct {
	Loss      float64 // mean client training loss
	Accuracy  float64 // server-side validation accuracy
	RawBytes  int     // total uncompressed update bytes (all clients)
	WireBytes int     // total encoded update bytes (all clients; wire framing excluded)
	// DeltaTensors counts lossy tensors sent as cross-round residuals and
	// DeltaBytesSaved totals what they saved over their absolute encodings,
	// estimated from a sample for large tensors (core.Stats.DeltaBytesSaved);
	// both are 0 unless the transport compresses deltas.
	DeltaTensors    int
	DeltaBytesSaved int
	Timings         RoundTimings
}

// Federation owns a global model and a set of clients.
type Federation struct {
	Global    *nn.Network
	Clients   []*Client
	Transport Transport
	Test      *dataset.Dataset
}

// NewFederation wires a federation together. All client networks must be
// structurally identical to the global network.
func NewFederation(global *nn.Network, clients []*Client, transport Transport, test *dataset.Dataset) *Federation {
	return &Federation{Global: global, Clients: clients, Transport: transport, Test: test}
}

// RunRound executes one FedAvg round: broadcast → parallel local training →
// upload and aggregation in client order → validation. Cancelling ctx
// aborts the round between phases and inside an upload.
func (f *Federation) RunRound(ctx context.Context, round, localEpochs int) (*RoundResult, error) {
	res := &RoundResult{}
	// A private clone, stable for the whole round: the state every client
	// trains from, and so the delta baseline both ends of an upload encode
	// and decode against.
	globalState := f.Global.StateDict()

	losses := make([]float64, len(f.Clients))
	trainDurs := make([]time.Duration, len(f.Clients))
	errs := make([]error, len(f.Clients))
	var wg sync.WaitGroup
	for i, c := range f.Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Net.LoadStateDict(globalState); err != nil {
				errs[i] = err
				return
			}
			t0 := time.Now()
			losses[i] = c.TrainEpochs(localEpochs)
			trainDurs[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fl: client %d: %w", i, err)
		}
		res.Loss += losses[i] / float64(len(f.Clients))
		res.Timings.Train = max(res.Timings.Train, trainDurs[i])
	}

	var err error
	if f.Transport.Opts == nil {
		err = f.aggregateRaw(ctx, res)
	} else {
		err = f.aggregateFedSZ(ctx, res, globalState, uint32(round)+1)
	}
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	res.Accuracy = f.Evaluate()
	res.Timings.Validate = time.Since(t0)
	return res, nil
}

// aggregateFedSZ uploads each client's update through the server's path
// minus the socket — wire.EncodeStream into a reused buffer, then
// agg.Sharded.IngestStream out of it — and loads the fold's mean into the
// global model. Delta rounds encode and decode against ref at epoch, as a
// server running delta rounds does.
func (f *Federation) aggregateFedSZ(ctx context.Context, res *RoundResult, ref *tensor.StateDict, epoch uint32) error {
	opts, dopts := *f.Transport.Opts, core.DecodeOptions{}
	if f.Transport.Delta {
		opts.Reference, opts.RefEpoch = ref, epoch
		dopts = core.DecodeOptions{Reference: ref, RefEpoch: epoch}
	}
	pool := sched.NewPool(0) // GOMAXPROCS: one budget for each encode and each decode
	sum := agg.New(agg.Config{Pool: pool})
	defer sum.Reset() // no pooled accumulator buffer outlives the round
	var buf bytes.Buffer
	for i, c := range f.Clients {
		buf.Reset()
		st, err := wire.EncodeStream(ctx, pool, wire.NewWriter(&buf), c.Net.StateDict(), opts)
		if err != nil {
			return fmt.Errorf("fl: encode client %d: %w", i, err)
		}
		_, dst, err := sum.IngestStream(ctx, uint32(i), 1, dopts, &buf)
		if err != nil {
			return fmt.Errorf("fl: ingest client %d: %w", i, err)
		}
		res.Timings.Compress += st.CompressTime
		res.Timings.Decompress += dst.DecompressTime
		res.RawBytes += st.RawBytes
		res.WireBytes += st.CompressedBytes
		res.DeltaTensors += st.DeltaTensors
		res.DeltaBytesSaved += st.DeltaBytesSaved
	}
	mean, _ := sum.Mean()
	defer core.Release(mean)
	return f.Global.LoadStateDict(mean)
}

// aggregateRaw sends each update as its serialized state dict and folds the
// decodes in agg.Sharded's order — adopt the first, add each later one at
// weight 1, divide by the count — so both arms of an accuracy comparison
// share one fold's arithmetic.
func (f *Federation) aggregateRaw(ctx context.Context, res *RoundResult) error {
	var sum *tensor.StateDict
	defer func() { core.Release(sum) }()
	for i, c := range f.Clients {
		if err := ctx.Err(); err != nil {
			return err
		}
		sd := c.Net.StateDict()
		t0 := time.Now()
		payload := sd.Marshal()
		t1 := time.Now()
		upd, err := tensor.UnmarshalStateDict(payload)
		if err != nil {
			return fmt.Errorf("fl: raw decode client %d: %w", i, err)
		}
		if sum == nil {
			sum = upd
		} else {
			err = sum.AddScaled(upd, 1)
			core.Release(upd)
			if err != nil {
				return fmt.Errorf("fl: aggregate client %d: %w", i, err)
			}
		}
		res.Timings.Compress += t1.Sub(t0)
		res.Timings.Decompress += time.Since(t1)
		res.RawBytes += sd.SizeBytes()
		res.WireBytes += len(payload)
	}
	sum.Scale(1 / float32(len(f.Clients)))
	return f.Global.LoadStateDict(sum)
}

// evalBatch is the number of test samples Evaluate forwards at a time.
const evalBatch = 64

// Evaluate computes global-model top-1 accuracy on the test set.
func (f *Federation) Evaluate() float64 {
	n := f.Test.Len()
	correct := 0.0
	for lo := 0; lo < n; lo += evalBatch {
		hi := min(lo+evalBatch, n)
		x, labels := f.Test.Batch(lo, hi)
		logits := f.Global.Forward(x, false)
		correct += nn.Accuracy(logits, labels) * float64(hi-lo)
	}
	return correct / float64(n)
}

// Run executes rounds communication rounds and returns per-round results.
// Cancelling ctx stops after the in-flight round.
func (f *Federation) Run(ctx context.Context, rounds, localEpochs int) ([]*RoundResult, error) {
	out := make([]*RoundResult, 0, rounds)
	for r := 0; r < rounds; r++ {
		res, err := f.RunRound(ctx, r, localEpochs)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
