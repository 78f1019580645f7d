package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/netsim"
	"repro/internal/nn/models"
	"repro/internal/tensor"
)

// paperCost is one codec's Eqn 1 inputs at paper scale: compress and
// decompress time, raw and compressed bytes.
type paperCost struct {
	tC, tD    time.Duration
	raw, comp int
}

// measurePaperCost compresses and decompresses profile under opts and scales
// the times and sizes by 1/scale, as all four are linear in bytes.
func measurePaperCost(profile *tensor.StateDict, opts core.Options, scale float64) (paperCost, error) {
	stream, st, err := core.Compress(profile, opts)
	if err != nil {
		return paperCost{}, err
	}
	t0 := time.Now()
	if _, _, err := core.Decompress(stream); err != nil {
		return paperCost{}, err
	}
	tD, up := time.Since(t0), 1/scale
	return paperCost{
		tC:   time.Duration(float64(st.CompressTime) * up),
		tD:   time.Duration(float64(tD) * up),
		raw:  int(float64(st.RawBytes) * up),
		comp: int(float64(st.CompressedBytes) * up),
	}, nil
}

// decide is Eqn 1 for c on link.
func (c paperCost) decide(link netsim.Link) netsim.Decision {
	return netsim.ShouldCompress(c.tC, c.tD, c.raw, c.comp, link)
}

// lossyPartitionData concatenates the dense weight tensors of a state dict
// — the data the EBLC actually sees (Algorithm 1).
func lossyPartitionData(sd *tensor.StateDict, threshold int) []float32 {
	var out []float32
	for _, e := range sd.Entries() {
		if e.Kind == tensor.KindWeight && e.Tensor.NumElems() > threshold {
			out = append(out, e.Tensor.Data...)
		}
	}
	return out
}

// metadataBlob serializes the lossless partition the way the pipeline does.
func metadataBlob(sd *tensor.StateDict, threshold int) []byte {
	rest := tensor.NewStateDict()
	for _, e := range sd.Entries() {
		if !(e.Kind == tensor.KindWeight && e.Tensor.NumElems() > threshold) {
			rest.Add(e.Name, e.Kind, e.Tensor)
		}
	}
	return rest.Marshal()
}

// buildFederation is BuildFederation at the default learning rate.
func buildFederation(cfg Config, modelName, datasetName string, transport fl.Transport, seedSalt uint64) (*fl.Federation, error) {
	return BuildFederation(cfg, modelName, datasetName, transport, seedSalt, 0.02)
}

// BuildFederation wires a mini-FL run for (model, dataset) under cfg: the
// synthetic data seeded by cfg.Seed+seedSalt, split IID over cfg.Clients
// clients that train at learning rate lr, a global model, and transport.
// fedsz-train and every accuracy experiment build their federations here.
func BuildFederation(cfg Config, modelName, datasetName string, transport fl.Transport, seedSalt uint64, lr float64) (*fl.Federation, error) {
	dcfg, err := dataset.ScaledConfig(datasetName, cfg.ImageSide, cfg.TrainN, cfg.TestN, cfg.Seed+seedSalt)
	if err != nil {
		return nil, err
	}
	train, test := dataset.Generate(dcfg)
	shards := dataset.ShardIID(train, cfg.Clients, cfg.Seed+seedSalt)
	in := models.Input{Channels: dcfg.Channels, Height: dcfg.Height, Width: dcfg.Width, Classes: dcfg.Classes}
	rng := rand.New(rand.NewPCG(cfg.Seed+seedSalt, 1))
	global, err := models.BuildMini(modelName, rng, in)
	if err != nil {
		return nil, err
	}
	clients := make([]*fl.Client, cfg.Clients)
	for i := range clients {
		crng := rand.New(rand.NewPCG(cfg.Seed+seedSalt, uint64(i)+10))
		net, err := models.BuildMini(modelName, crng, in)
		if err != nil {
			return nil, err
		}
		clients[i] = fl.NewClient(i, net, shards[i], 16, lr, cfg.Seed+seedSalt)
	}
	return fl.NewFederation(global, clients, transport, test), nil
}

// measure times f and returns its duration.
func measure(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// throughputMBps converts (bytes processed, duration) to MB/s.
func throughputMBps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// Formatting helpers.

func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func f4(x float64) string  { return fmt.Sprintf("%.4f", x) }
func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}
func secs(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// modelDatasetCombos returns the (model, dataset) pairs an experiment runs:
// everything in full mode, representatives in quick mode.
func modelDatasetCombos(cfg Config) [][2]string {
	if cfg.AllCombos {
		var out [][2]string
		for _, m := range models.Names() {
			for _, d := range []string{"cifar10", "fmnist", "caltech101"} {
				out = append(out, [2]string{m, d})
			}
		}
		return out
	}
	return [][2]string{
		{"alexnet", "cifar10"},
		{"mobilenetv2", "fmnist"},
		{"resnet50", "cifar10"},
	}
}
