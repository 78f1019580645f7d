// Command fedsz-train runs a federated-learning simulation (FedAvg over
// synthetic class-prototype data) with or without FedSZ compression and
// reports per-round accuracy, byte counts, and simulated communication
// times on a constrained link.
//
// Usage:
//
//	fedsz-train -model alexnet -dataset cifar10 -rounds 10
//	fedsz-train -no-compress               # uncompressed baseline
//	fedsz-train -eb 1e-3 -bandwidth 10     # tighter bound, 10 Mbps link
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	fedsz "repro"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/netsim"
	"repro/internal/nn/models"

	"math/rand/v2"
)

func main() {
	var (
		model      = flag.String("model", "alexnet", "model (alexnet|mobilenetv2|resnet50)")
		ds         = flag.String("dataset", "cifar10", "dataset (cifar10|fmnist|caltech101)")
		rounds     = flag.Int("rounds", 10, "communication rounds")
		clients    = flag.Int("clients", 4, "FedAvg clients")
		eb         = flag.Float64("eb", 1e-2, "relative error bound")
		lossy      = flag.String("lossy", "sz2", "lossy compressor")
		noCompress = flag.Bool("no-compress", false, "disable FedSZ (raw transport)")
		bandwidth  = flag.Float64("bandwidth", 10, "simulated link bandwidth (Mbps)")
		imageSide  = flag.Int("image-side", 16, "training image side (paper dims capped for CPU training)")
		trainN     = flag.Int("train-n", 256, "training samples")
		seed       = flag.Uint64("seed", 1, "seed")
	)
	flag.Parse()
	if err := run(*model, *ds, *rounds, *clients, *eb, *lossy, *noCompress, *bandwidth, *imageSide, *trainN, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "fedsz-train: %v\n", err)
		os.Exit(1)
	}
}

func run(model, ds string, rounds, nClients int, eb float64, lossyName string, noCompress bool, bandwidth float64, imageSide, trainN int, seed uint64) error {
	dcfg, err := dataset.ScaledConfig(ds, imageSide, trainN, trainN/4, seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	train, test := dataset.Generate(dcfg)
	shards := dataset.ShardIID(train, nClients, seed)
	in := models.Input{Channels: dcfg.Channels, Height: dcfg.Height, Width: dcfg.Width, Classes: dcfg.Classes}
	rng := rand.New(rand.NewPCG(seed, 1))
	global, err := models.BuildMini(model, rng, in)
	if err != nil {
		return err
	}
	clients := make([]*fl.Client, nClients)
	for i := range clients {
		crng := rand.New(rand.NewPCG(seed, uint64(i)+10))
		net, err := models.BuildMini(model, crng, in)
		if err != nil {
			return err
		}
		clients[i] = fl.NewClient(i, net, shards[i], 16, 0.02, seed)
	}

	transport := fl.Raw
	if !noCompress {
		// Build the pipeline configuration through the session API so a
		// bad -lossy name or -eb value fails here, before any training.
		codec, err := fedsz.New(fedsz.WithCompressor(lossyName), fedsz.WithRelBound(eb))
		if err != nil {
			return err
		}
		transport = fl.FedSZ(codec.Options())
	}
	fed := fl.NewFederation(global, clients, transport, test)
	link := netsim.Link{BandwidthMbps: bandwidth}

	fmt.Printf("federated %s on %s-like data: %d clients, %d rounds, transport=%s\n",
		model, ds, nClients, rounds, transport.Name())
	fmt.Printf("%-6s %-8s %-10s %-12s %-12s %-10s\n", "round", "loss", "top1(%)", "wire(bytes)", "comm@link", "ratio")
	for r := 0; r < rounds; r++ {
		res, err := fed.RunRound(ctx, r, 1)
		if err != nil {
			return err
		}
		commTime := link.TransmitTime(res.WireBytes)
		ratio := float64(res.RawBytes) / float64(res.WireBytes)
		fmt.Printf("%-6d %-8.4f %-10.2f %-12d %-12v %-10.2f\n",
			r, res.Loss, 100*res.Accuracy, res.WireBytes, commTime.Round(1000000), ratio)
	}
	return nil
}
