package conformance

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compressors"
	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/lanes"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// The golden-stream corpus locks the serialized formats across PRs: for
// each codec configuration, testdata holds the compressed FedSZ stream
// (.fsz), its wire framing (.wire), and the marshaled decoded state dict
// (.sd) as produced at check-in time. Decoders of any later revision must
// reproduce the .sd bytes exactly from both containers — every stream ever
// written must keep decoding. The encoder is locked too: re-encoding a
// non-frozen case's dict with its options must reproduce the checked-in
// .fsz byte for byte, so an encoder change that moves any byte fails here
// instead of waiting for someone to run -update and read git status.
//
// Regenerate after an *intentional, version-bumped* format change with:
//
//	go test ./internal/conformance -run TestGoldenStreams -update

var update = flag.Bool("update", false, "rewrite the golden-stream corpus")

// bothPaths runs check on the lane kernels and again on the Go loops
// (lanes.BothPaths), so the corpus and the bit-identity tests hold the Go
// loops to the same bytes on every amd64 run. A failure names its path.
func bothPaths(t *testing.T, check func()) {
	lanes.BothPaths(func(path string) {
		defer func() {
			if t.Failed() {
				t.Logf("on the %s path", path)
			}
		}()
		check()
	})
}

// goldenDict builds the deterministic state dict the corpus encodes:
// two lossy weight tensors plus bit-sensitive metadata.
func goldenDict(nonFinite bool) *tensor.StateDict {
	rng := rand.New(rand.NewPCG(2024, 1105))
	sd := tensor.NewStateDict()
	w1 := tensor.FromData(eblctest.WeightLike(rng, 4096), 64, 64)
	w2 := tensor.FromData(eblctest.WeightLike(rng, 2000), 2000)
	if nonFinite {
		w1.Data[17] = float32(math.NaN())
		w1.Data[1025] = float32(math.Inf(1))
		w2.Data[1999] = float32(math.Inf(-1))
	}
	sd.Add("conv1.weight", tensor.KindWeight, w1)
	sd.Add("fc.weight", tensor.KindWeight, w2)
	b := tensor.New(64)
	for i := range b.Data {
		b.Data[i] = float32(0.01 * rng.NormFloat64())
	}
	sd.Add("conv1.bias", tensor.KindBias, b)
	step := tensor.New(1)
	step.Data[0] = 42
	sd.Add("step", tensor.KindScalarMeta, step)
	return sd
}

// goldenDeltaEpoch tags the v3 delta corpus; decoders must present the
// same epoch to reconstruct it.
const goldenDeltaEpoch = 7

// goldenDeltaRef is the cross-round reference the v3 delta corpus encodes
// against: the golden dict itself plays round t, and the update (round t+1)
// is a small deterministic drift away — the temporally correlated regime
// the delta format exists for.
func goldenDeltaRef() *tensor.StateDict { return goldenDict(false) }

// goldenDeltaDict drifts each tensor by its own amplitude, so every delta
// stream holds both residual forms: conv1.weight's drift fits the bound
// around one value (a 13-byte constant residual, one plain blob even where
// the tensor would chunk), fc.weight's does not (a codec-encoded residual).
func goldenDeltaDict() *tensor.StateDict {
	sd := goldenDict(false)
	rng := rand.New(rand.NewPCG(2026, 808))
	for _, e := range sd.Entries() {
		amp := 0.002
		if e.Name == "fc.weight" {
			amp = 0.01
		}
		for i := range e.Tensor.Data {
			e.Tensor.Data[i] += float32(amp * rng.NormFloat64())
		}
	}
	return sd
}

type goldenCase struct {
	name      string
	lossy     string
	params    ebcl.Params
	nonFinite bool
	// delta encodes the case against goldenDeltaRef at goldenDeltaEpoch —
	// the v3 cross-round residual format.
	delta bool
	// chunkElems sets the intra-tensor chunking target (the v4 format);
	// 0 leaves chunking at the default, which no golden-dict tensor
	// crosses.
	chunkElems int
	// version is the stream-format version byte the checked-in .fsz must
	// carry. frozen cases were written by an older encoder and are never
	// regenerated — -update must not replace a v1 artifact with whatever
	// the current encoder emits, or the backward-compatibility guarantee
	// silently stops being tested.
	version byte
	frozen  bool
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, lossy := range compressors.Names() {
		// Frozen v1 corpus: single-stream entropy stage, written before the
		// multi-stream format existed. Decode-only from here on.
		cases = append(cases, goldenCase{
			name:    fmt.Sprintf("rel1e-2_%s", lossy),
			lossy:   lossy,
			params:  ebcl.Rel(1e-2),
			version: 1,
			frozen:  true,
		})
		cases = append(cases, goldenCase{
			name:      fmt.Sprintf("abs1e-3_nonfinite_%s", lossy),
			lossy:     lossy,
			params:    ebcl.Abs(1e-3),
			nonFinite: true,
			version:   1,
			frozen:    true,
		})
		// v2 corpus: multi-stream entropy stage (the tensors here are large
		// enough that the encoder picks the 4-stream layout).
		cases = append(cases, goldenCase{
			name:    fmt.Sprintf("v2_rel1e-2_%s", lossy),
			lossy:   lossy,
			params:  ebcl.Rel(1e-2),
			version: 2,
		})
		cases = append(cases, goldenCase{
			name:      fmt.Sprintf("v2_abs1e-3_nonfinite_%s", lossy),
			lossy:     lossy,
			params:    ebcl.Abs(1e-3),
			nonFinite: true,
			version:   2,
		})
		// v3 corpus: cross-round delta format — residual sections against
		// the retained reference, per-tensor mode bytes, epoch-tagged
		// header.
		cases = append(cases, goldenCase{
			name:    fmt.Sprintf("v3_rel1e-2_delta_%s", lossy),
			lossy:   lossy,
			params:  ebcl.Rel(1e-2),
			version: 3,
			delta:   true,
		})
	}
	// v4 corpus: intra-tensor chunked blobs. A 512-element target splits
	// conv1.weight (4096 elems) into 8 chunks and fc.weight (2000 elems)
	// into 4, so both the multi-chunk jump-table layout and its delta
	// composition are locked. Two codecs suffice — the chunk framing is
	// codec-independent, and each sub-blob is an ordinary codec stream
	// already covered per-codec by the v2/v3 corpus.
	for _, lossy := range []string{"sz2", "sz3"} {
		cases = append(cases, goldenCase{
			name:       fmt.Sprintf("v4_rel1e-2_chunked_%s", lossy),
			lossy:      lossy,
			params:     ebcl.Rel(1e-2),
			version:    4,
			chunkElems: 512,
		})
		cases = append(cases, goldenCase{
			name:       fmt.Sprintf("v4_rel1e-2_delta_chunked_%s", lossy),
			lossy:      lossy,
			params:     ebcl.Rel(1e-2),
			version:    4,
			delta:      true,
			chunkElems: 512,
		})
	}
	return cases
}

func goldenPath(name, ext string) string {
	return filepath.Join("testdata", name+"."+ext)
}

// encodeGolden re-encodes one case's generating dict with the case's
// options, returning the stream and the options that decode it.
func encodeGolden(t *testing.T, gc goldenCase) ([]byte, core.DecodeOptions) {
	t.Helper()
	lossy, err := compressors.Get(gc.lossy)
	if err != nil {
		t.Fatal(err)
	}
	sd := goldenDict(gc.nonFinite)
	opts := core.Options{Lossy: lossy, LossyParams: gc.params, ChunkElems: gc.chunkElems}
	var dopts core.DecodeOptions
	if gc.delta {
		sd = goldenDeltaDict()
		opts.Reference, opts.RefEpoch = goldenDeltaRef(), goldenDeltaEpoch
		dopts = core.DecodeOptions{Reference: goldenDeltaRef(), RefEpoch: goldenDeltaEpoch}
	}
	stream, stats, err := core.Compress(sd, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gc.delta && (stats.ConstantResiduals == 0 || stats.ConstantResiduals == stats.DeltaTensors) {
		t.Fatalf("%d of %d residuals are constant, want both forms in the stream", stats.ConstantResiduals, stats.DeltaTensors)
	}
	return stream, dopts
}

// regenerate writes one case's three artifacts.
func regenerate(t *testing.T, gc goldenCase) {
	t.Helper()
	stream, dopts := encodeGolden(t, gc)
	decoded, _, err := core.DecompressWith(context.Background(), nil, stream, dopts)
	if err != nil {
		t.Fatal(err)
	}
	var framed bytes.Buffer
	if err := wire.NewWriter(&framed).WriteStream(stream); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		ext  string
		data []byte
	}{
		{"fsz", stream},
		{"wire", framed.Bytes()},
		{"sd", decoded.Marshal()},
	} {
		if err := os.WriteFile(goldenPath(gc.name, f.ext), f.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGoldenStreams(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			if *update && !gc.frozen {
				regenerate(t, gc)
			}
			bothPaths(t, func() {
				stream, err := os.ReadFile(goldenPath(gc.name, "fsz"))
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if len(stream) < 5 || stream[4] != gc.version {
					t.Fatalf("golden stream carries format version %d, want %d", stream[4], gc.version)
				}
				if !gc.frozen {
					if got, _ := encodeGolden(t, gc); !bytes.Equal(got, stream) {
						t.Fatalf("encoder emits %d bytes that differ from the %d-byte golden stream — the encoder drifted", len(got), len(stream))
					}
				}
				wantSD, err := os.ReadFile(goldenPath(gc.name, "sd"))
				if err != nil {
					t.Fatal(err)
				}
				framed, err := os.ReadFile(goldenPath(gc.name, "wire"))
				if err != nil {
					t.Fatal(err)
				}

				var dopts core.DecodeOptions
				if gc.delta {
					dopts = core.DecodeOptions{Reference: goldenDeltaRef(), RefEpoch: goldenDeltaEpoch}
					// Without the reference the residual sections must fail with
					// the renegotiation sentinel, never decode to wrong bytes.
					if _, _, err := core.Decompress(stream); !errors.Is(err, core.ErrReference) {
						t.Fatalf("delta stream without reference: %v, want ErrReference", err)
					}
				}

				// The checked-in stream must decode byte-for-byte.
				sd, _, err := core.DecompressWith(context.Background(), nil, stream, dopts)
				if err != nil {
					t.Fatalf("golden stream no longer decodes: %v", err)
				}
				if !bytes.Equal(sd.Marshal(), wantSD) {
					t.Fatal("golden stream decodes to different bytes — the stream format drifted")
				}

				// The wire container must reassemble the identical payload and
				// decode identically through the streaming path.
				r := wire.NewReader(bytes.NewReader(framed))
				payload, err := io.ReadAll(r)
				if err != nil {
					t.Fatalf("golden wire stream no longer de-frames: %v", err)
				}
				if !bytes.Equal(payload, stream) {
					t.Fatal("wire payload differs from the golden stream — the wire format drifted")
				}
				ctx := context.Background()
				wd, _, err := core.DecodeSections(ctx, nil, wire.NewSectionSource(ctx, bytes.NewReader(framed)), dopts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wd.StateDict().Marshal(), wantSD) {
					t.Fatal("streaming decode of golden wire stream differs")
				}

			})
		})
	}
}

// TestChunkThresholdByteIdentity locks the v4 opt-out contract: enabling
// chunking with a threshold no tensor crosses must emit bytes identical
// to chunking disabled — the v2 layout absolute, the v3 layout with a
// reference. A deployment can therefore turn chunking on fleet-wide
// without bumping the stream version for small models.
func TestChunkThresholdByteIdentity(t *testing.T) {
	bothPaths(t, func() {
		for _, name := range []string{"sz2", "sz3"} {
			lossy, err := compressors.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			sd := goldenDict(false)
			off, _, err := core.Compress(sd, core.Options{Lossy: lossy, ChunkElems: -1})
			if err != nil {
				t.Fatal(err)
			}
			on, _, err := core.Compress(sd, core.Options{Lossy: lossy, ChunkElems: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(off, on) {
				t.Fatalf("%s: below-threshold chunked stream differs from v2 bytes", name)
			}
			dsd := goldenDeltaDict()
			dOff, _, err := core.Compress(dsd, core.Options{
				Lossy: lossy, ChunkElems: -1,
				Reference: goldenDeltaRef(), RefEpoch: goldenDeltaEpoch,
			})
			if err != nil {
				t.Fatal(err)
			}
			dOn, _, err := core.Compress(dsd, core.Options{
				Lossy: lossy, ChunkElems: 1 << 20,
				Reference: goldenDeltaRef(), RefEpoch: goldenDeltaEpoch,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dOff, dOn) {
				t.Fatalf("%s: below-threshold chunked delta stream differs from v3 bytes", name)
			}
		}
	})
}
