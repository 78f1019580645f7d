// Federated scenario: the paper's end-to-end loop — four FedAvg clients
// training a CNN on (synthetic) CIFAR-10-like shards, uploading FedSZ-
// compressed updates each round, with a side-by-side uncompressed baseline
// and simulated 10 Mbps communication times.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ebcl"
	"repro/internal/fl"
	"repro/internal/netsim"
	"repro/internal/nn/models"
)

func main() {
	const (
		rounds   = 8
		nClients = 4
		seed     = 11
	)
	for _, compressed := range []bool{false, true} {
		label := "uncompressed"
		transport := fl.Raw
		if compressed {
			label = "fedsz (SZ2 @ REL 1e-2 + blosclz)"
			transport = fl.FedSZ(core.Options{LossyParams: ebcl.Rel(1e-2)})
		}
		fmt.Printf("=== %s ===\n", label)
		if err := run(transport, rounds, nClients, seed); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}

func run(transport fl.Transport, rounds, nClients int, seed uint64) error {
	cfg, err := dataset.ScaledConfig("cifar10", 16, 256, 64, seed)
	if err != nil {
		return err
	}
	train, test := dataset.Generate(cfg)
	shards := dataset.ShardIID(train, nClients, seed)
	in := models.Input{Channels: cfg.Channels, Height: cfg.Height, Width: cfg.Width, Classes: cfg.Classes}
	rng := rand.New(rand.NewPCG(seed, 1))
	global, err := models.BuildMini("alexnet", rng, in)
	if err != nil {
		return err
	}
	clients := make([]*fl.Client, nClients)
	for i := range clients {
		crng := rand.New(rand.NewPCG(seed, uint64(i)+10))
		net, err := models.BuildMini("alexnet", crng, in)
		if err != nil {
			return err
		}
		clients[i] = fl.NewClient(i, net, shards[i], 16, 0.02, seed)
	}
	fed := fl.NewFederation(global, clients, transport, test)

	fmt.Printf("%-6s %-8s %-9s %-12s %-8s %-12s\n",
		"round", "loss", "top1(%)", "wire bytes", "ratio", "comm@10Mbps")
	var totalComm float64
	for r := 0; r < rounds; r++ {
		res, err := fed.RunRound(context.Background(), r, 1)
		if err != nil {
			return err
		}
		comm := netsim.EdgeLink.TransmitTime(res.WireBytes)
		totalComm += comm.Seconds()
		fmt.Printf("%-6d %-8.4f %-9.2f %-12d %-8.2f %-12v\n",
			r, res.Loss, 100*res.Accuracy, res.WireBytes,
			float64(res.RawBytes)/float64(res.WireBytes), comm.Round(1000000))
	}
	fmt.Printf("total simulated communication: %.1fs over %d rounds\n", totalComm, rounds)
	return nil
}
