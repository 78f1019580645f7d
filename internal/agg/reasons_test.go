package agg

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/flserve"
	"repro/internal/promtext"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// TestRejectReasons: a live server counts each refusal under its reason in
// fedsz_server_updates_rejected_total: a NaN weight under an absolute bound
// (nonfinite), a later update whose tensor departs from the structure the
// first adopted (structure), a tensor whose shape declares more elements
// than a stream may hold and a header that declares more entries than a
// stream may hold (cap, twice), and a bit-flipped blob (other).
func TestRejectReasons(t *testing.T) {
	opts := core.Options{LossyParams: ebcl.Abs(1e-3)}
	compress := func(sd *tensor.StateDict) []byte {
		t.Helper()
		stream, _, err := core.Compress(sd, opts)
		if err != nil {
			t.Fatal(err)
		}
		return stream
	}
	nanWeight := finiteDict(3)
	nanWeight.Get("conv.weight").Data[17] = float32(math.NaN())
	departs := tensor.NewStateDict()
	for _, e := range finiteDict(4).Entries() {
		if e.Kind == tensor.KindWeight {
			e.Tensor = tensor.FromData(e.Tensor.Data[:2048], 2048)
		}
		departs.Add(e.Name, e.Kind, e.Tensor)
	}
	// The first tensor's only dimension, after its name, kind and rank, and
	// the header's entry count, before its flags: a client's splitter
	// refuses either, so they go out frame by frame.
	huge := framedWith(t, compress(finiteDict(5)), func(s *core.StreamSections) {
		s.Tensors[0] = bytes.Clone(s.Tensors[0])
		binary.LittleEndian.PutUint32(s.Tensors[0][1+len("conv.weight")+2:], ebcl.MaxElements+1)
	})
	entries := framedWith(t, compress(finiteDict(7)), func(s *core.StreamSections) {
		hdr, err := core.ParseHeader(s.Header)
		if err != nil {
			t.Fatal(err)
		}
		s.Header = bytes.Clone(s.Header)
		binary.LittleEndian.PutUint32(s.Header[len(s.Header)-len(hdr.Flags)-4:], 0xFFFF0000)
	})
	flipped := withFirstBlob(t, compress(finiteDict(6)), func(pt core.ParsedTensor) []byte {
		blob := append([]byte(nil), pt.Blob...)
		blob[len(blob)/2] ^= 0xFF
		return blob
	})

	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: New(Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := telemetry.NewRegistry()
	srv.RegisterMetrics(reg)
	c := &flserve.Client{Addr: srv.Addr().String()}
	ctx := context.Background()
	if err := c.Upload(ctx, 1, compress(finiteDict(1))); err != nil {
		t.Fatal(err)
	}
	for i, stream := range [][]byte{compress(nanWeight), compress(departs), flipped} {
		if err := c.Upload(ctx, uint32(10+i), stream); !errors.Is(err, flserve.ErrRejected) {
			t.Fatalf("bad update %d: %v, want ErrRejected", i, err)
		}
	}
	for i, framed := range [][]byte{huge, entries} {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		prelude := binary.LittleEndian.AppendUint32(nil, 0x464C5331) // "FLS1"
		if _, err := conn.Write(append(binary.LittleEndian.AppendUint32(prelude, uint32(20+i)), framed...)); err != nil {
			t.Fatal(err)
		}
		var ack [1]byte
		if _, err := io.ReadFull(conn, ack[:]); err != nil || ack[0] != 1 {
			t.Fatalf("over-cap update %d: ack %d (%v), want 1, rejected", i, ack[0], err)
		}
		conn.Close()
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := promtext.ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for reason, want := range map[string]float64{"nonfinite": 1, "structure": 1, "cap": 2, "other": 1} {
		s, ok := promtext.FindSample(samples, "fedsz_server_updates_rejected_total", "reason", reason)
		if !ok || s.Value != want {
			t.Errorf("reason %s: %v (found %v), want %v", reason, s.Value, ok, want)
		}
	}
	if st := srv.Snapshot(); st.Updates != 1 || st.Rejected != 5 {
		t.Errorf("stats %+v, want 1 update / 5 rejected", st)
	}
}

// framedWith wire-frames stream section by section after edit has changed
// its sections (they are views of stream: edit a copy).
func framedWith(t testing.TB, stream []byte, edit func(s *core.StreamSections)) []byte {
	t.Helper()
	secs, err := core.Sections(stream)
	if err != nil {
		t.Fatal(err)
	}
	edit(secs)
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	err = w.WriteSection(core.SectionHeader, secs.Header)
	for _, sec := range secs.Tensors {
		err = errors.Join(err, w.WriteSection(core.SectionTensor, sec))
	}
	if err = errors.Join(err, w.WriteSection(core.SectionLossless, secs.Lossless), w.Close()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
