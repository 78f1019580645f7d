package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// sectioned is a FedSZ stream held section by section, so a case can damage
// one section and still hand both decoders the same input: the
// concatenation for the in-memory source, one CRC-valid frame per section
// for the frame source.
type sectioned struct {
	header   []byte
	tensors  [][]byte
	lossless []byte
}

func split(t *testing.T, stream []byte) *sectioned {
	t.Helper()
	secs, err := core.Sections(stream)
	if err != nil {
		t.Fatal(err)
	}
	s := &sectioned{header: bytes.Clone(secs.Header), lossless: bytes.Clone(secs.Lossless)}
	for _, ts := range secs.Tensors {
		s.tensors = append(s.tensors, bytes.Clone(ts))
	}
	return s
}

func (s *sectioned) stream() []byte {
	out := bytes.Clone(s.header)
	for _, ts := range s.tensors {
		out = append(out, ts...)
	}
	return append(out, s.lossless...)
}

func (s *sectioned) framed(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	err := w.WriteFrame(FrameHeader, s.header)
	for _, ts := range s.tensors {
		if err == nil {
			err = w.WriteFrame(FrameTensor, ts)
		}
	}
	if err == nil {
		err = w.WriteFrame(FrameLossless, s.lossless)
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sourceDict has equal-length names so one can be patched into another:
// two lossy weights and one (or two) biases in the metadata partition.
func sourceDict(seed uint64, extraMeta bool) *tensor.StateDict {
	rng := rand.New(rand.NewPCG(seed, seed^0x50C))
	sd := tensor.NewStateDict()
	sd.Add("a.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 4096), 4096))
	sd.Add("b.weight", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 2048), 2048))
	sd.Add("c.biases", tensor.KindBias, tensor.New(16))
	if extraMeta {
		sd.Add("d.biases", tensor.KindBias, tensor.New(16))
	}
	return sd
}

// TestSectionSourcesAgree drives the same hostile, truncated and cancelled
// inputs through the two section sources — in-memory views
// (core.DecompressWith) and wire frames (SectionSource) — and requires the
// same error class from each: one pipeline, one set of checks. A valid input
// must decode to the same bits through both.
func TestSectionSourcesAgree(t *testing.T) {
	compress := func(sd *tensor.StateDict, o core.Options) []byte {
		o.LossyParams = ebcl.Rel(1e-2)
		stream, _, err := core.Compress(sd, o)
		if err != nil {
			t.Fatal(err)
		}
		return stream
	}
	plain := compress(sourceDict(1, false), core.Options{})
	// A residual (v3) stream: a small perturbation of the reference, so the
	// encoder actually picks delta sections.
	ref := sourceDict(2, false)
	upd := ref.Clone()
	for _, e := range upd.Entries() {
		for i := range e.Tensor.Data {
			e.Tensor.Data[i] += 1e-3
		}
	}
	const epoch = 7
	delta := compress(upd, core.Options{Reference: ref, RefEpoch: epoch})
	withRef := core.DecodeOptions{Reference: ref, RefEpoch: epoch}
	partialRef := tensor.NewStateDict()
	partialRef.Add("a.weight", tensor.KindWeight, ref.Get("a.weight"))

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// modeOffset locates a v3 tensor section's mode byte.
	modeOffset := func(sec []byte) int { return 1 + int(sec[0]) + 2 + 4*int(sec[1+int(sec[0])+1]) }

	cases := []struct {
		name   string
		base   []byte
		damage func(s *sectioned)
		ctx    context.Context
		dopts  core.DecodeOptions
		want   error // nil, or the sentinel every source must return
	}{
		{name: "valid", base: plain},
		{name: "valid-delta", base: delta, dopts: withRef},
		{name: "cancelled", base: plain, ctx: cancelled, want: context.Canceled},
		{name: "dup-lossy-name", base: plain, want: core.ErrCorrupt,
			damage: func(s *sectioned) { copy(s.tensors[1][1:], "a.weight") }},
		{name: "lossy-name-in-metadata", base: plain, want: core.ErrCorrupt,
			damage: func(s *sectioned) { copy(s.tensors[1][1:], "c.biases") }},
		{name: "metadata-entry-missing", base: compress(sourceDict(3, true), core.Options{}), want: core.ErrCorrupt,
			damage: func(s *sectioned) { s.lossless = split(t, plain).lossless }},
		{name: "metadata-entry-extra", base: plain, want: core.ErrCorrupt,
			damage: func(s *sectioned) { s.lossless = split(t, compress(sourceDict(3, true), core.Options{})).lossless }},
		{name: "element-count-over-cap", base: plain, want: core.ErrLimit,
			damage: func(s *sectioned) {
				sec := s.tensors[0]
				binary.LittleEndian.PutUint32(sec[1+int(sec[0])+2:], 0xFFFFFFFF)
			}},
		{name: "entry-count-over-cap", base: plain, want: core.ErrLimit,
			damage: func(s *sectioned) {
				// The count sits before the flags, which end the header.
				h, err := core.ParseHeader(s.header)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint32(s.header[len(s.header)-len(h.Flags)-4:], 0xFFFF0000)
			}},
		{name: "unknown-codec", base: plain, want: core.ErrCorrupt,
			damage: func(s *sectioned) { copy(s.header[6:], "zz9") }},
		{name: "bad-mode-byte", base: delta, dopts: withRef, want: core.ErrCorrupt,
			damage: func(s *sectioned) { s.tensors[0][modeOffset(s.tensors[0])] = 7 }},
		{name: "corrupt-blob", base: plain, want: core.ErrCorrupt,
			damage: func(s *sectioned) { sec := s.tensors[1]; sec[len(sec)-len(sec)/2] ^= 0xFF; sec[len(sec)-1] ^= 0xFF }},
		{name: "residual-without-reference", base: delta, want: core.ErrReference},
		{name: "residual-wrong-epoch", base: delta, want: core.ErrReference,
			dopts: core.DecodeOptions{Reference: ref, RefEpoch: epoch + 1}},
		{name: "residual-tensor-not-in-reference", base: delta, want: core.ErrReference,
			dopts: core.DecodeOptions{Reference: partialRef, RefEpoch: epoch}},
	}
	// Truncations: the serialized stream cut short for the byte source, the
	// framed stream cut at the same fraction for the frame source.
	type cut struct{ num, den int }
	cuts := []cut{{0, 1}, {1, 50}, {1, 4}, {1, 2}, {9, 10}}

	pool := sched.NewPool(2)
	run := func(t *testing.T, ctx context.Context, dopts core.DecodeOptions, stream, framed []byte, want error) {
		t.Helper()
		if ctx == nil {
			ctx = context.Background()
		}
		sources := []struct {
			name   string
			decode func() (*tensor.StateDict, error)
		}{
			{"bytes", func() (*tensor.StateDict, error) {
				sd, _, err := core.DecompressWith(ctx, pool, stream, dopts)
				return sd, err
			}},
			{"frames", func() (*tensor.StateDict, error) {
				d, _, err := core.DecodeSections(ctx, pool, NewSectionSource(ctx, bytes.NewReader(framed)), dopts)
				if err != nil {
					return nil, err
				}
				return d.StateDict(), nil
			}},
		}
		var first []byte
		for _, src := range sources {
			gets0, misses0 := sched.FloatPoolCounters()
			puts0 := sched.FloatPoolPuts()
			sd, err := src.decode()
			if want == nil {
				if err != nil {
					t.Fatalf("%s: %v", src.name, err)
				}
				if got := sd.Marshal(); first == nil {
					first = got
				} else if !bytes.Equal(got, first) {
					t.Fatalf("%s: decoded dict differs from the bytes source's", src.name)
				}
				core.Release(sd)
				continue
			}
			if !errors.Is(err, want) {
				t.Fatalf("%s: error %v, want %v", src.name, err, want)
			}
			gets1, misses1 := sched.FloatPoolCounters()
			if took, put := (gets1+misses1)-(gets0+misses0), sched.FloatPoolPuts()-puts0; took != put {
				t.Fatalf("%s: failed decode took %d float buffers and returned %d", src.name, took, put)
			}
		}
		if busy := pool.Busy(); busy != 0 {
			t.Fatalf("pool busy after the decodes: %d", busy)
		}
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := split(t, c.base)
			if c.damage != nil {
				c.damage(s)
			}
			run(t, c.ctx, c.dopts, s.stream(), s.framed(t), c.want)
		})
	}
	for _, c := range cuts {
		t.Run(fmt.Sprintf("truncated-%d-of-%d", c.num, c.den), func(t *testing.T) {
			framed := split(t, plain).framed(t)
			run(t, nil, core.DecodeOptions{}, plain[:len(plain)*c.num/c.den], framed[:len(framed)*c.num/c.den], core.ErrCorrupt)
		})
	}
}
