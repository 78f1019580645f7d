package agg

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/lossless"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// metaEntry is one entry of a hand-written metadata partition.
type metaEntry struct {
	name string
	vals []float32
}

// partition serializes entries in tensor.StateDict's format (rank 1, kind
// bias) without StateDict's checks, so two entries may share a name.
func partition(entries ...metaEntry) []byte {
	out := binary.LittleEndian.AppendUint32(nil, 0x46645A31)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(entries)))
	for _, e := range entries {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(e.name)))
		out = append(append(out, e.name...), byte(tensor.KindBias), 1)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(e.vals)))
		out = tensor.AppendFloat32s(out, e.vals)
	}
	return out
}

// withMeta replaces stream's metadata partition with raw, compressed by the
// stream's own lossless codec: every section and, once framed, every CRC is
// valid, whatever raw holds.
func withMeta(t testing.TB, stream, raw []byte) []byte {
	t.Helper()
	secs, err := core.Sections(stream)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := core.ParseHeader(secs.Header)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := lossless.Get(hdr.LosslessName)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := codec.Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), secs.Header...)
	for _, ts := range secs.Tensors {
		out = append(out, ts...)
	}
	return ebcl.AppendSection(out, blob)
}

// TestLaterMetadataRejected: a round has adopted hostileDict's structure
// (lossy a.weight and b.weight, metadata c.biases and d.biases) and folded a
// second update. Each later update here departs from it only in its
// metadata partition, and must be refused as ErrCorrupt with the
// accumulator's bits untouched and every float buffer it took returned.
func TestLaterMetadataRejected(t *testing.T) {
	bias := func(n int, bad ...float32) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = 0.01 * float32(i+1)
		}
		for i, b := range bad {
			v[3+i] = b
		}
		return v
	}
	c, d := metaEntry{"c.biases", bias(16)}, metaEntry{"d.biases", bias(16)}
	full := partition(c, d)
	later := mustCompress(t, hostileDict(3, true))
	for name, raw := range map[string][]byte{
		"renamed":           partition(metaEntry{"x.biases", bias(16)}, d),
		"reordered":         partition(d, c),
		"one-element-more":  partition(metaEntry{"c.biases", bias(17)}, d),
		"one-entry-fewer":   partition(c),
		"duplicate-name":    partition(c, c),
		"lossy-name":        partition(metaEntry{"a.weight", bias(16)}, d),
		"nan-bias":          partition(metaEntry{"c.biases", bias(16, float32(math.NaN()))}, d),
		"inf-bias":          partition(c, metaEntry{"d.biases", bias(16, float32(math.Inf(1)))}),
		"cut-mid-entry":     full[:len(full)-7],
		"cut-mid-name":      full[:8+2+4],
		"count-above-bytes": append(binary.LittleEndian.AppendUint32(full[:4:4], 3), full[8:]...),
	} {
		t.Run(name, func(t *testing.T) {
			sh := New(Config{Pool: sched.NewPool(2)})
			ingest(t, sh, 0, 1, frame(t, mustCompress(t, hostileDict(1, true))))
			ingest(t, sh, 1, 1, frame(t, withMeta(t, later, full)))
			before, _ := sh.Mean()
			hits0, misses0 := sched.FloatPoolCounters()
			puts0 := sched.FloatPoolPuts()
			_, _, err := sh.IngestStream(context.Background(), 2, 1, core.DecodeOptions{}, bytes.NewReader(frame(t, withMeta(t, later, raw))))
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("IngestStream: %v, want ErrCorrupt", err)
			}
			hits1, misses1 := sched.FloatPoolCounters()
			if got, put := (hits1+misses1)-(hits0+misses0), sched.FloatPoolPuts()-puts0; got != put {
				t.Fatalf("refused update took %d float buffers and returned %d", got, put)
			}
			after, n := sh.Mean()
			if n != 2 {
				t.Fatalf("count %d after the refused update, want 2", n)
			}
			mustEqualBits(t, "mean after the refused update", after, before)
		})
	}
	// Bytes after the last entry are not part of any entry, and fold.
	sh := New(Config{})
	ingest(t, sh, 0, 1, frame(t, mustCompress(t, hostileDict(1, true))))
	ingest(t, sh, 1, 1, frame(t, withMeta(t, later, append(full, 1, 2, 3))))
	if n := folded(sh); n != 2 {
		t.Fatalf("partition with trailing bytes: count %d, want 2", n)
	}
}

// TestLaterUpdateRefusedBeforeAllocating: once a round has adopted a
// 4 096-element tensor, a later stream that declares 2^24 elements for it
// (its blob still the 4 096-element one) is refused as its section parses,
// before a 64 MiB buffer is taken: the process allocates less than 1 MiB on
// the way, and the accumulator keeps its bits.
func TestLaterUpdateRefusedBeforeAllocating(t *testing.T) {
	stream := mustCompress(t, hostileDict(1, false))
	field := []byte("\x08a.weight\x00\x01")
	from := binary.LittleEndian.AppendUint32(append([]byte(nil), field...), 4096)
	to := binary.LittleEndian.AppendUint32(append([]byte(nil), field...), 1<<24)
	hostile := frame(t, bytes.Replace(stream, from, to, 1))
	if bytes.Equal(hostile, frame(t, stream)) {
		t.Fatal("a.weight's shape not found in the stream")
	}
	sh := New(Config{Pool: sched.NewPool(2)})
	ingest(t, sh, 0, 1, frame(t, stream))
	ingest(t, sh, 1, 1, frame(t, mustCompress(t, hostileDict(2, false))))
	before, _ := sh.Mean()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, _, err := sh.IngestStream(context.Background(), 2, 1, core.DecodeOptions{}, bytes.NewReader(hostile))
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("IngestStream: %v, want ErrCorrupt", err)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing the update allocated %d bytes, want < 1 MiB", grew)
	}
	after, _ := sh.Mean()
	mustEqualBits(t, "mean after the refused update", after, before)
}
