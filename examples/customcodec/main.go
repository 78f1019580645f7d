// Custom-codec scenario: FedSZ is a pipeline, not a single compressor —
// the paper positions it as a "last step" any EBLC can plug into. This
// example implements a minimal custom error-bounded compressor (a plain
// uniform quantizer with no prediction or entropy stage), registers it,
// runs it through the full FedSZ pipeline, and compares it against SZ2 to
// show what the prediction + Huffman stages buy.
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand/v2"

	fedsz "repro"
)

// uniformQuantizer is the simplest possible EBLC: values are quantized to
// bins of width 2·ebAbs and stored as raw 16-bit codes. Residuals outside
// the code range fall back to literals. It satisfies the same error-bound
// contract as SZ2 but skips prediction and entropy coding entirely.
//
// It implements the three-method codec contract (fedsz.Compressor): Name,
// CompressAppend, which extends the caller's buffer, and DecompressInto,
// which reconstructs into the caller's buffer — which keeps a custom codec
// on the pipeline's pooled hot path. A stream names its codec, so a
// receiver decodes it only from the registry: the codec enters a Codec
// through RegisterCompressor and WithCompressor, never as a bare value.
type uniformQuantizer struct{}

func (uniformQuantizer) Name() string { return "uniform16" }

// CompressAppend appends the encoded stream to dst, like append: the
// appended bytes must not depend on dst's prior contents, and must alias
// neither data nor any retained state.
func (uniformQuantizer) CompressAppend(dst []byte, data []float32, p fedsz.Params) ([]byte, error) {
	if p.Value <= 0 {
		return nil, errors.New("uniform16: bound must be positive")
	}
	// Resolve a REL bound against the value range, SZ-style.
	lo, hi := float32(0), float32(0)
	if len(data) > 0 {
		lo, hi = data[0], data[0]
		for _, v := range data {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	ebAbs := p.Value
	if p.Mode == fedsz.RelBound(1).Mode { // ModeRelative
		ebAbs = p.Value * float64(hi-lo)
	}
	out := binary.LittleEndian.AppendUint32(dst, uint32(len(data)))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(ebAbs))
	out = binary.LittleEndian.AppendUint32(out, math.Float32bits(lo))
	if ebAbs == 0 {
		// Constant or empty input: store literals verbatim.
		for _, v := range data {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
		return out, nil
	}
	for _, v := range data {
		code := int64(math.Round(float64(v-lo) / (2 * ebAbs)))
		if code < 0 || code > math.MaxUint16-1 {
			out = binary.LittleEndian.AppendUint16(out, math.MaxUint16)
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
			continue
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(code))
	}
	return out, nil
}

// DecompressInto reconstructs into dst's storage: the result reuses dst's
// backing array when its capacity suffices and is freshly allocated
// otherwise. Every element is overwritten, so a dirty recycled buffer
// decodes identically to a nil one.
func (uniformQuantizer) DecompressInto(dst []float32, stream []byte) ([]float32, error) {
	if len(stream) < 16 {
		return nil, errors.New("uniform16: short stream")
	}
	n := int(binary.LittleEndian.Uint32(stream))
	ebAbs := math.Float64frombits(binary.LittleEndian.Uint64(stream[4:]))
	lo := math.Float32frombits(binary.LittleEndian.Uint32(stream[12:]))
	pos := 16
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	out := dst[:0]
	if ebAbs == 0 {
		for i := 0; i < n; i++ {
			if pos+4 > len(stream) {
				return nil, errors.New("uniform16: truncated")
			}
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(stream[pos:])))
			pos += 4
		}
		return out, nil
	}
	for i := 0; i < n; i++ {
		if pos+2 > len(stream) {
			return nil, errors.New("uniform16: truncated")
		}
		code := binary.LittleEndian.Uint16(stream[pos:])
		pos += 2
		if code == math.MaxUint16 {
			if pos+4 > len(stream) {
				return nil, errors.New("uniform16: truncated")
			}
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(stream[pos:])))
			pos += 4
			continue
		}
		out = append(out, lo+float32(float64(code)*2*ebAbs))
	}
	return out, nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	if err := fedsz.RegisterCompressor("uniform16", func() fedsz.Compressor {
		return uniformQuantizer{}
	}); err != nil {
		return err
	}

	// A weight-shaped update.
	rng := rand.New(rand.NewPCG(9, 9))
	weights := make([]float32, 1<<18)
	for i := range weights {
		weights[i] = float32(0.02 * (rng.ExpFloat64() - rng.ExpFloat64()))
	}
	sd := fedsz.NewStateDict()
	sd.Add("layer.weight", fedsz.KindWeight, fedsz.NewTensor(weights, len(weights)))

	fmt.Println("same pipeline, two lossy backends at REL 1e-2:")
	for _, name := range []string{"uniform16", "sz2"} {
		// A registered custom compressor builds into a session codec by
		// name like any built-in; a typo would fail here, not mid-stream.
		codec, err := fedsz.New(fedsz.WithCompressor(name), fedsz.WithRelBound(1e-2))
		if err != nil {
			return err
		}
		stream, stats, err := codec.Compress(context.Background(), sd)
		if err != nil {
			return err
		}
		// Streams are self-describing: Decompress finds uniform16 in the
		// registry without being told.
		restored, _, err := codec.Decompress(context.Background(), stream)
		if err != nil {
			return err
		}
		var maxErr float64
		r := restored.Get("layer.weight").Data
		for i := range weights {
			if d := math.Abs(float64(weights[i]) - float64(r[i])); d > maxErr {
				maxErr = d
			}
		}
		fmt.Printf("  %-10s ratio %6.2fx  max error %.6f\n", name, stats.Ratio(), maxErr)
	}
	fmt.Println("\nSZ2's prediction + Huffman stages buy ~4-8x over plain 16-bit")
	fmt.Println("quantization at the same error bound — the gap the paper's")
	fmt.Println("compressor study (Table I) is about.")
	return nil
}
