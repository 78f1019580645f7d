// Command fedsz-compress applies the FedSZ pipeline to a serialized state
// dict file (the binary format produced by StateDict.Marshal — this
// module's replacement for pickle), or generates a synthetic profile model
// to demonstrate the pipeline end-to-end.
//
// Usage:
//
//	fedsz-compress -in model.sd -out model.fsz           # compress
//	fedsz-compress -d -in model.fsz -out restored.sd     # decompress
//	fedsz-compress -demo alexnet -eb 1e-2                # synthetic demo
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"

	fedsz "repro"
	"repro/internal/nn/models"
	"repro/internal/tensor"
)

func main() {
	var (
		in         = flag.String("in", "", "input file")
		out        = flag.String("out", "", "output file")
		decompress = flag.Bool("d", false, "decompress instead of compress")
		demo       = flag.String("demo", "", "generate a profile model (alexnet|mobilenetv2|resnet50) instead of reading -in")
		scale      = flag.Float64("scale", 0.05, "profile scale for -demo")
		eb         = flag.Float64("eb", 1e-2, "relative error bound")
		lossy      = flag.String("lossy", "sz2", "lossy compressor (sz2|sz3|szx|zfp)")
		codec      = flag.String("lossless", "blosclz", "lossless codec for metadata")
	)
	flag.Parse()

	if err := run(*in, *out, *decompress, *demo, *scale, *eb, *lossy, *codec); err != nil {
		fmt.Fprintf(os.Stderr, "fedsz-compress: %v\n", err)
		os.Exit(1)
	}
}

func run(in, out string, decompress bool, demo string, scale, eb float64, lossyName, codecName string) error {
	if decompress {
		data, err := os.ReadFile(in)
		if err != nil {
			return err
		}
		// The stream names the compressors it was encoded with, so the
		// default codec decodes any of them.
		codec, err := fedsz.New()
		if err != nil {
			return err
		}
		sd, _, err := codec.Decompress(context.Background(), data)
		if err != nil {
			return err
		}
		fmt.Printf("restored %d tensors, %d parameters (%d bytes)\n", sd.Len(), sd.NumParams(), sd.SizeBytes())
		if out != "" {
			return os.WriteFile(out, sd.Marshal(), 0o644)
		}
		return nil
	}

	var sd *fedsz.StateDict
	switch {
	case demo != "":
		rng := rand.New(rand.NewPCG(1, 2))
		var err error
		sd, err = models.BuildProfile(demo, rng, scale)
		if err != nil {
			return err
		}
		fmt.Printf("generated %s profile: %d tensors, %d parameters\n", demo, sd.Len(), sd.NumParams())
	case in != "":
		data, err := os.ReadFile(in)
		if err != nil {
			return err
		}
		sd, err = tensor.UnmarshalStateDict(data)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -in or -demo")
	}

	// The session API validates the whole configuration up front: a typo
	// in -lossy or -lossless fails here, before any compression work.
	codec, err := fedsz.New(
		fedsz.WithCompressor(lossyName),
		fedsz.WithRelBound(eb),
		fedsz.WithLossless(codecName),
	)
	if err != nil {
		return err
	}
	stream, stats, err := codec.Compress(context.Background(), sd)
	if err != nil {
		return err
	}
	fmt.Printf("compressed %d -> %d bytes (ratio %.2fx) in %v\n",
		stats.RawBytes, stats.CompressedBytes, stats.Ratio(), stats.CompressTime.Round(1000))
	fmt.Printf("  lossy partition:    %d tensors, %d -> %d bytes (%.2fx)\n",
		stats.LossyTensors, stats.LossyRaw, stats.LossyCompressed, stats.LossyRatio())
	fmt.Printf("  lossless partition: %d tensors, %d -> %d bytes\n",
		stats.LosslessTensors, stats.LosslessRaw, stats.LosslessCompressed)
	if out != "" {
		return os.WriteFile(out, stream, 0o644)
	}
	return nil
}
