// Package fl implements the federated-learning substrate: FedAvg clients
// and server, round orchestration over one pluggable update transport (raw
// or FedSZ-compressed, both in memory), and per-phase timing — the APPFL/MPI
// stack of the paper replaced by goroutines. A round over real sockets is
// internal/flserve + internal/agg (see examples/streaming and bench/), not a
// transport here.
package fl

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// Transport carries a chunk of trained client updates to the server — the
// seam where FedSZ plugs in. Round is the whole interface: everything a
// round tells the transport travels in its input, everything the round
// accounts comes back in its output.
type Transport interface {
	// Name identifies the transport in experiment output.
	Name() string
	// Round encodes every state dict in in.States, carries it, and decodes
	// it at the server. Cancelling ctx aborts the call with ctx.Err().
	Round(ctx context.Context, in RoundInput) (RoundOutput, error)
}

// RoundInput is one chunk of a round's client updates plus the round state
// a transport may use.
type RoundInput struct {
	// States are the trained client state dicts. The transport only reads
	// them.
	States []*tensor.StateDict
	// Reference is the global state every client trained from this round —
	// the baseline a delta-capable transport encodes and decodes residuals
	// against — and RefEpoch tags it. Read-only and stable for the call.
	Reference *tensor.StateDict
	RefEpoch  uint32
}

// RoundOutput is what one Round call produced.
type RoundOutput struct {
	// Decoded holds the server-side decoded dicts, index-aligned with
	// RoundInput.States. They are owned by the caller: their tensor buffers
	// may be pool-backed, and a caller that folds a decoded dict and
	// discards it may recycle the storage via core.Release — the
	// steady-state zero-allocation path RunRound takes.
	Decoded []*tensor.StateDict
	// EncodeDur and DecodeDur report each client's own encode and decode
	// time as the codec measured it (core.Stats.CompressTime,
	// core.DecompressStats.DecompressTime) — the per-client accounting of
	// paper Figure 6 regardless of how the batch was parallelized.
	EncodeDur []time.Duration
	DecodeDur []time.Duration
	// RawBytes sums the uncompressed update sizes; WireBytes sums the
	// encoded payload sizes.
	RawBytes  int
	WireBytes int
	// DeltaTensors counts lossy tensors sent as cross-round residuals and
	// DeltaBytesSaved totals what they saved over their absolute encodings,
	// estimated from a sample for large tensors (core.Stats.DeltaBytesSaved);
	// both are 0 unless the transport compresses deltas.
	DeltaTensors    int
	DeltaBytesSaved int
}

// RawTransport transmits the uncompressed serialized state dict.
type RawTransport struct{}

// Name implements Transport.
func (RawTransport) Name() string { return "uncompressed" }

// Round implements Transport: marshal, unmarshal.
func (RawTransport) Round(ctx context.Context, in RoundInput) (RoundOutput, error) {
	n := len(in.States)
	out := RoundOutput{
		Decoded:   make([]*tensor.StateDict, n),
		EncodeDur: make([]time.Duration, n),
		DecodeDur: make([]time.Duration, n),
	}
	for i, sd := range in.States {
		if err := ctx.Err(); err != nil {
			return RoundOutput{}, err
		}
		t0 := time.Now()
		payload := sd.Marshal()
		t1 := time.Now()
		decoded, err := tensor.UnmarshalStateDict(payload)
		if err != nil {
			return RoundOutput{}, fmt.Errorf("fl: raw decode client %d: %w", i, err)
		}
		out.Decoded[i] = decoded
		out.EncodeDur[i], out.DecodeDur[i] = t1.Sub(t0), time.Since(t1)
		out.RawBytes += sd.SizeBytes()
		out.WireBytes += len(payload)
	}
	return out, nil
}

// FedSZTransport compresses updates with the FedSZ pipeline.
type FedSZTransport struct {
	Opts core.Options
	// Delta enables cross-round delta compression: updates encode as v3
	// residual streams against RoundInput.Reference (falling back to
	// absolute per tensor) and decode against the same dict.
	Delta bool
}

// NewFedSZTransport wraps pipeline options as a transport.
func NewFedSZTransport(opts core.Options) *FedSZTransport {
	return &FedSZTransport{Opts: opts}
}

// Name implements Transport.
func (t *FedSZTransport) Name() string { return "fedsz" }

// Round implements Transport: the chunk compresses as one batch and
// decompresses as one batch on the same pool, so neither phase
// oversubscribes the machine and the codec's own per-client stats are the
// round's accounting.
func (t *FedSZTransport) Round(ctx context.Context, in RoundInput) (RoundOutput, error) {
	opts := t.Opts
	var dopts core.DecodeOptions
	if t.Delta {
		opts.Reference, opts.RefEpoch = in.Reference, in.RefEpoch
		dopts = core.DecodeOptions{Reference: in.Reference, RefEpoch: in.RefEpoch}
	}
	pool := sched.NewPool(0) // GOMAXPROCS: one budget for the batch encode and the batch decode
	streams, stats, err := core.CompressAll(ctx, pool, in.States, opts)
	if err != nil {
		return RoundOutput{}, err
	}
	decoded, dstats, err := core.DecompressAll(ctx, pool, streams, dopts)
	if err != nil {
		return RoundOutput{}, err
	}
	out := RoundOutput{
		Decoded:   decoded,
		EncodeDur: make([]time.Duration, len(streams)),
		DecodeDur: make([]time.Duration, len(streams)),
	}
	for i, st := range stats {
		out.EncodeDur[i], out.DecodeDur[i] = st.CompressTime, dstats[i].DecompressTime
		out.RawBytes += st.RawBytes
		out.WireBytes += len(streams[i])
		out.DeltaTensors += st.DeltaTensors
		out.DeltaBytesSaved += st.DeltaBytesSaved
	}
	return out, nil
}

// Client is one FedAvg participant: a local model, a data shard, and an
// SGD optimizer.
type Client struct {
	ID        int
	Net       *nn.Network
	Data      *dataset.Dataset
	BatchSize int
	Opt       *nn.SGD
	rng       *rand.Rand
}

// NewClient constructs a client around an existing network.
func NewClient(id int, net *nn.Network, data *dataset.Dataset, batchSize int, lr float64, seed uint64) *Client {
	return &Client{
		ID: id, Net: net, Data: data, BatchSize: batchSize,
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
	// Compress and Decompress sum each client's own encode and decode time
	// as the transport reported them (RoundOutput.EncodeDur / DecodeDur).
	// Both sides are the codec's own measurement of a batch that runs on
	// one pool after training has finished, so neither includes time spent
	// contending with sibling clients' training, and neither depends on how
	// the server parallelizes the batch.
	Compress   time.Duration
	Decompress time.Duration
	// DecompressWall is the wall-clock of the whole upload phase: every
	// chunk's Round call (encode and decode) plus the fold. On a multicore
	// host it is smaller than Compress + Decompress.
	DecompressWall time.Duration
	Validate       time.Duration
}

// RoundResult reports one FedAvg communication round.
type RoundResult struct {
	Round     int
	Loss      float64 // mean client training loss
	Accuracy  float64 // server-side validation accuracy
	RawBytes  int     // total uncompressed update bytes (all clients)
	WireBytes int     // total transmitted bytes (all clients)
	// DeltaTensors and DeltaBytesSaved sum the transport's residual-encoding
	// figures over all clients (0 unless it compresses deltas).
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

	// acc is the FedAvg accumulator, pooled on first use and rezeroed in
	// place every subsequent round (LoadStateDict copies out of it, so
	// holding it across rounds is safe).
	acc *tensor.StateDict
}

// NewFederation wires a federation together. All client networks must be
// structurally identical to the global network.
func NewFederation(global *nn.Network, clients []*Client, transport Transport, test *dataset.Dataset) *Federation {
	return &Federation{Global: global, Clients: clients, Transport: transport, Test: test}
}

// RunRound executes one FedAvg round: broadcast → parallel local training →
// transport round (encode, upload, decode) → aggregation → validation.
// Cancelling ctx aborts the round between phases and inside the transport.
func (f *Federation) RunRound(ctx context.Context, round, localEpochs int) (*RoundResult, error) {
	res := &RoundResult{Round: round}
	// A private clone, stable until LoadStateDict(acc) below: the state
	// every client trains from, and so the delta baseline both ends of the
	// transport encode and decode against.
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

	if f.acc != nil {
		// A retained accumulator that no longer matches the model means the
		// global network changed structure mid-federation — a bug ZeroInto's
		// silent reallocation would paper over (stale pooled buffers, wrong
		// aggregation). Fail loudly instead.
		if err := f.acc.CheckCompatible(globalState); err != nil {
			return nil, fmt.Errorf("fl: accumulator incompatible with global model: %w", err)
		}
	}
	f.acc = globalState.ZeroInto(f.acc)
	acc := f.acc
	weight := 1 / float32(len(f.Clients))

	// Upload + FedAvg aggregation in deterministic client order, chunk-wise:
	// each chunk's state dicts are snapshotted, carried, folded into the
	// accumulator and released before the next chunk's exist, so peak
	// memory stays O(chunk × model) rather than O(clients × model).
	in := RoundInput{Reference: globalState, RefEpoch: uint32(round) + 1}
	chunk := 2 * runtime.GOMAXPROCS(0)
	t0 := time.Now()
	for lo := 0; lo < len(f.Clients); lo += chunk {
		hi := min(lo+chunk, len(f.Clients))
		in.States = make([]*tensor.StateDict, hi-lo)
		for i, c := range f.Clients[lo:hi] {
			in.States[i] = c.Net.StateDict()
		}
		out, err := f.Transport.Round(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("fl: round clients %d-%d: %w", lo, hi-1, err)
		}
		res.RawBytes += out.RawBytes
		res.WireBytes += out.WireBytes
		res.DeltaTensors += out.DeltaTensors
		res.DeltaBytesSaved += out.DeltaBytesSaved
		for i, sd := range out.Decoded {
			res.Timings.Compress += out.EncodeDur[i]
			res.Timings.Decompress += out.DecodeDur[i]
			if err := acc.AddScaled(sd, weight); err != nil {
				return nil, fmt.Errorf("fl: aggregate client %d: %w", lo+i, err)
			}
			// Folded and dead: hand the decode buffers back to the pool so
			// the next chunk's decodes reuse them.
			core.Release(sd)
		}
	}
	res.Timings.DecompressWall = time.Since(t0)
	if err := f.Global.LoadStateDict(acc); err != nil {
		return nil, err
	}

	t0 = time.Now()
	res.Accuracy = f.Evaluate()
	res.Timings.Validate = time.Since(t0)
	return res, nil
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
