package fedsz

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/lanes"
	"repro/internal/wire"
)

// fuzzDict builds a deterministic state dict from fuzz input: raw bytes
// become literal float32 weight values (sanitized to finite, so the REL
// configurations stay well-defined), topped up with seeded spiky filler,
// plus a lossless-path bias tensor.
func fuzzDict(seed uint64, n1, n2 uint16, raw []byte) *StateDict {
	rng := rand.New(rand.NewPCG(seed, 0x5A17))
	mk := func(n int) []float32 {
		if n < 1 {
			n = 1
		}
		data := make([]float32, n)
		for i := range data {
			if 4*i+4 <= len(raw) {
				v := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
				if f64 := float64(v); !math.IsNaN(f64) && !math.IsInf(f64, 0) && math.Abs(f64) < 1e6 {
					data[i] = v
					continue
				}
			}
			data[i] = float32(0.05 * (rng.ExpFloat64() - rng.ExpFloat64()))
		}
		return data
	}
	// Sizes above DefaultThreshold so both tensors take the lossy path;
	// capped to keep a fuzz iteration cheap.
	e1 := 1025 + int(n1)%3072
	e2 := 1025 + int(n2)%3072
	sd := NewStateDict()
	sd.Add("a.weight", KindWeight, NewTensor(mk(e1), e1))
	sd.Add("b.weight", KindWeight, NewTensor(mk(e2), e2))
	b := make([]float32, 16)
	for i := range b {
		b[i] = float32(0.01 * rng.NormFloat64())
	}
	sd.Add("a.bias", KindBias, NewTensor(b, 16))
	return sd
}

// maxAbsErr returns the largest elementwise reconstruction error.
func maxAbsErr(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}

// deltaModeByteOffset locates the v3 mode byte inside one tensor section
// view (layout: len-prefixed name, kind, rank, dims, mode, length prefix,
// blob).
func deltaModeByteOffset(section []byte) int {
	nameLen := int(section[0])
	rank := int(section[1+nameLen+1])
	return 1 + nameLen + 1 + 1 + 4*rank
}

// FuzzDeltaDifferential holds the v3 cross-round delta format to its
// contracts on adversarial input: a residual round trip stays within the
// error bound; decoding without the reference — or with a mismatched epoch
// or a structurally different reference dict — fails with ErrReference;
// flipping a mode byte to an invalid value or truncating a residual section
// wraps ErrCorrupt; and no mutation ever panics the decoder.
func FuzzDeltaDifferential(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(0), []byte{}, uint8(0))
	f.Add(uint64(42), uint16(512), uint16(77), []byte{0, 0, 128, 63, 0, 0, 0, 192}, uint8(3))
	f.Add(uint64(7), uint16(3000), uint16(1), bytes.Repeat([]byte{0xAA, 0x3D, 0x11, 0xBE}, 32), uint8(255))
	f.Add(uint64(9), uint16(1), uint16(4000), []byte{0xFF, 0xFF, 0x7F, 0x7F}, uint8(64))
	f.Add(uint64(11), uint16(2000), uint16(300), []byte{}, uint8(32))

	f.Fuzz(func(t *testing.T, seed uint64, n1, n2 uint16, raw []byte, mut uint8) {
		if len(raw) > 1<<14 {
			return
		}
		// The checks run on the lane kernels and again on the Go loops, so the
		// committed seeds hold both to the bound on every amd64 run.
		lanes.BothPaths(func(path string) {
			defer func() {
				if t.Failed() {
					t.Logf("on the %s path", path)
				}
			}()
			ctx := context.Background()
			sd := fuzzDict(seed, n1, n2, raw)
			// The reference is the update nudged by a small deterministic step —
			// the correlated regime where residual sections engage. The step is
			// 1e-3, or (1 + mut/16)·1e-4 when mut is a multiple of 16: around the
			// ±1e-3 bound's constant-residual gate, so a residual may ship as one
			// constant or go through the codec.
			step := 1e-3
			if mut%16 == 0 {
				step = 1e-4 * float64(1+mut/16)
			}
			ref := sd.Clone()
			rng := rand.New(rand.NewPCG(seed, 0xD317A))
			for _, e := range ref.Entries() {
				for i := range e.Tensor.Data {
					e.Tensor.Data[i] += float32(step * rng.NormFloat64())
				}
			}
			const epoch = 3

			for _, comp := range []string{"sz2", "szx"} {
				codec, err := New(WithCompressor(comp), WithAbsBound(1e-3), WithParallelism(2))
				if err != nil {
					t.Fatal(err)
				}
				stream, stats, err := codec.CompressDelta(ctx, sd, ref, epoch)
				if err != nil {
					t.Fatalf("%s: delta compress: %v", comp, err)
				}
				if stream[4] != 3 {
					t.Fatalf("%s: delta stream version %d, want 3", comp, stream[4])
				}

				// Round trip against the right reference: bound + metadata hold.
				got, dstats, err := codec.DecompressDelta(ctx, stream, ref, epoch)
				if err != nil {
					t.Fatalf("%s: delta decompress: %v", comp, err)
				}
				if dstats.DeltaTensors != stats.DeltaTensors {
					t.Fatalf("%s: decoder saw %d residual tensors, encoder emitted %d",
						comp, dstats.DeltaTensors, stats.DeltaTensors)
				}
				for _, name := range []string{"a.weight", "b.weight"} {
					if e := maxAbsErr(sd.Get(name).Data, got.Get(name).Data); e > 1e-3*(1+1e-5)+1e-12 {
						t.Fatalf("%s: %s delta error %g exceeds bound", comp, name, e)
					}
				}
				for i, v := range sd.Get("a.bias").Data {
					if got.Get("a.bias").Data[i] != v {
						t.Fatalf("%s: metadata not bit-exact through delta stream", comp)
					}
				}

				// Reference mismatches: nil reference, wrong epoch, and a
				// structurally different dict must fail with ErrReference when
				// any section is residual — and must never panic.
				if stats.DeltaTensors > 0 {
					if _, _, err := codec.DecompressDelta(ctx, stream, nil, epoch); !errors.Is(err, core.ErrReference) {
						t.Fatalf("%s: nil reference: %v, want ErrReference", comp, err)
					}
					if _, _, err := codec.DecompressDelta(ctx, stream, ref, epoch+1); !errors.Is(err, core.ErrReference) {
						t.Fatalf("%s: wrong epoch: %v, want ErrReference", comp, err)
					}
					other := fuzzDict(seed+0x9E37, n2, n1, nil)
					if _, _, err := codec.DecompressDelta(ctx, stream, other, epoch); err != nil &&
						!errors.Is(err, core.ErrReference) && !errors.Is(err, core.ErrCorrupt) {
						t.Fatalf("%s: mismatched reference dict: unexpected error class %v", comp, err)
					}
				}

				secs, err := core.Sections(stream)
				if err != nil {
					t.Fatalf("%s: sections: %v", comp, err)
				}
				if len(secs.Tensors) > 0 {
					idx := int(mut) % len(secs.Tensors)
					badOff := len(secs.Header)
					for i := 0; i < idx; i++ {
						badOff += len(secs.Tensors[i])
					}
					badOff += deltaModeByteOffset(secs.Tensors[idx])

					// An invalid mode byte must be ErrCorrupt from both the
					// section parser and the decoder.
					bad := append([]byte(nil), stream...)
					bad[badOff] = 2 + mut%250
					if _, err := core.Sections(bad); !errors.Is(err, core.ErrCorrupt) {
						t.Fatalf("%s: invalid mode byte in Sections: %v, want ErrCorrupt", comp, err)
					}
					if _, _, err := codec.DecompressDelta(ctx, bad, ref, epoch); !errors.Is(err, core.ErrCorrupt) {
						t.Fatalf("%s: invalid mode byte in decode: %v, want ErrCorrupt", comp, err)
					}

					// Flipping a valid mode byte re-routes the blob through the
					// other path: the decode may fail (corrupt blob, missing
					// reference) but must never panic, and any failure must be a
					// classified sentinel.
					flip := append([]byte(nil), stream...)
					if flip[badOff] == 0 {
						flip[badOff] = 1
					} else {
						flip[badOff] = 0
					}
					if _, _, err := codec.DecompressDelta(ctx, flip, ref, epoch); err != nil &&
						!errors.Is(err, core.ErrCorrupt) && !errors.Is(err, core.ErrReference) {
						t.Fatalf("%s: flipped mode byte: unclassified error %v", comp, err)
					}
				}

				// Truncation anywhere in the stream must be ErrCorrupt (or
				// ErrReference when the cut hides the residual's reference
				// check), never a panic or a silent short decode.
				cut := 1 + int(mut)%(len(stream)-1)
				if _, _, err := codec.DecompressDelta(ctx, stream[:len(stream)-cut], ref, epoch); err == nil {
					t.Fatalf("%s: truncated delta stream decoded successfully", comp)
				} else if !errors.Is(err, core.ErrCorrupt) && !errors.Is(err, core.ErrReference) {
					t.Fatalf("%s: truncated delta stream: unclassified error %v", comp, err)
				}
			}
		})
	})
}

// FuzzCodecDifferential cross-checks every EBLC × bound-mode configuration
// across all four pipeline paths on one generated state dict: serial
// encode, parallel encode, and streaming encode must be byte-identical;
// in-memory decode and streaming decode must reconstruct identically; and
// every lossy tensor must land within its error bound. Any divergence
// between paths is a bug even when each path round-trips on its own.
func FuzzCodecDifferential(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(0), []byte{})
	f.Add(uint64(42), uint16(512), uint16(77), []byte{0, 0, 128, 63, 0, 0, 0, 192})
	f.Add(uint64(7), uint16(3000), uint16(1), bytes.Repeat([]byte{0xAA, 0x3D, 0x11, 0xBE}, 32))

	type config struct {
		comp   string
		params Params
		bound  func(data []float32) float64
	}
	// ZFP's REL/ABS mapping has no formal bound (paper §V-D1) — on
	// adversarial data even the conformance suite's 8× slack is exceeded —
	// so zfp is held to the differential contracts only (identical streams
	// and reconstructions across paths, exact metadata), not a bound.
	slack := map[string]float64{"sz2": 1, "sz3": 1, "szx": 1, "zfp": math.Inf(1)}
	var configs []config
	for _, name := range []string{"sz2", "sz3", "szx", "zfp"} {
		loose := slack[name]
		configs = append(configs,
			config{name, ebcl.Rel(1e-2), func(data []float32) float64 {
				lo, hi := data[0], data[0]
				for _, v := range data {
					lo, hi = min(lo, v), max(hi, v)
				}
				return loose * 1e-2 * float64(hi-lo)
			}},
			config{name, ebcl.Abs(1e-3), func([]float32) float64 { return loose * 1e-3 }},
		)
	}

	f.Fuzz(func(t *testing.T, seed uint64, n1, n2 uint16, raw []byte) {
		if len(raw) > 1<<14 {
			return
		}
		ctx := context.Background()
		sd := fuzzDict(seed, n1, n2, raw)
		for _, cfg := range configs {
			serial, err := New(WithCompressor(cfg.comp), WithParams(cfg.params), WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := New(WithCompressor(cfg.comp), WithParams(cfg.params), WithParallelism(4))
			if err != nil {
				t.Fatal(err)
			}

			ref, _, err := serial.Compress(ctx, sd)
			if err != nil {
				t.Fatalf("%s/%v: serial compress: %v", cfg.comp, cfg.params.Mode, err)
			}
			par, _, err := parallel.Compress(ctx, sd)
			if err != nil {
				t.Fatalf("%s/%v: parallel compress: %v", cfg.comp, cfg.params.Mode, err)
			}
			if !bytes.Equal(ref, par) {
				t.Fatalf("%s/%v: parallel stream differs from serial", cfg.comp, cfg.params.Mode)
			}
			// The streaming arms run the one streaming path: wire frames.
			var streamed, buffered bytes.Buffer
			if _, err := wire.EncodeStream(ctx, parallel.pool, wire.NewWriter(&streamed), sd, parallel.opts); err != nil {
				t.Fatalf("%s/%v: streaming encode: %v", cfg.comp, cfg.params.Mode, err)
			}
			if err := wire.NewWriter(&buffered).WriteStream(ref); err != nil {
				t.Fatalf("%s/%v: framing the serial stream: %v", cfg.comp, cfg.params.Mode, err)
			}
			if !bytes.Equal(buffered.Bytes(), streamed.Bytes()) {
				t.Fatalf("%s/%v: streaming-encode frames differ from the serial stream's", cfg.comp, cfg.params.Mode)
			}

			mem, _, err := parallel.Decompress(ctx, ref)
			if err != nil {
				t.Fatalf("%s/%v: decompress: %v", cfg.comp, cfg.params.Mode, err)
			}
			d, _, err := core.DecodeSections(ctx, serial.pool, wire.NewSectionSource(ctx, bytes.NewReader(streamed.Bytes())), core.DecodeOptions{})
			if err != nil {
				t.Fatalf("%s/%v: streaming decode: %v", cfg.comp, cfg.params.Mode, err)
			}
			viaReader := d.StateDict()
			if d, err := mem.MaxAbsDiff(viaReader); err != nil || d != 0 {
				t.Fatalf("%s/%v: streaming decode differs from in-memory (d=%v err=%v)",
					cfg.comp, cfg.params.Mode, d, err)
			}

			// Error-bound and metadata contracts on the reconstruction.
			for _, name := range []string{"a.weight", "b.weight"} {
				orig := sd.Get(name).Data
				got := mem.Get(name).Data
				if len(got) != len(orig) {
					t.Fatalf("%s/%v: %s length %d, want %d", cfg.comp, cfg.params.Mode, name, len(got), len(orig))
				}
				bound := cfg.bound(orig)
				if e := maxAbsErr(orig, got); e > bound*(1+1e-5)+1e-12 {
					t.Fatalf("%s/%v: %s error %g exceeds bound %g", cfg.comp, cfg.params.Mode, name, e, bound)
				}
			}
			for i, v := range sd.Get("a.bias").Data {
				if mem.Get("a.bias").Data[i] != v {
					t.Fatalf("%s/%v: metadata not bit-exact", cfg.comp, cfg.params.Mode)
				}
			}
		}
	})
}
