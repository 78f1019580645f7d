package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/compressors"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/sched"
)

// TestDecompressRandomCorruption flips random bytes in valid FedSZ streams
// and asserts the decoder neither panics nor hangs — it must return an
// error or a structurally valid dict. (Hostile length fields used to be
// able to trigger multi-gigabyte allocations; the decoders now bound their
// first allocations by the available input.)
func TestDecompressRandomCorruption(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	sd := modelDict(rng)
	stream, _, err := Compress(sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		bad := append([]byte(nil), stream...)
		flips := rng.IntN(4) + 1
		for f := 0; f < flips; f++ {
			bad[rng.IntN(len(bad))] ^= byte(rng.IntN(255) + 1)
		}
		done := make(chan struct{})
		go func(b []byte) {
			defer close(done)
			got, _, err := Decompress(b)
			if err == nil && got == nil {
				t.Error("nil dict with nil error")
			}
		}(bad)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("trial %d: decompress hung", trial)
		}
	}
}

// TestDecompressTruncationSweep truncates a valid stream at every length
// and asserts clean failure.
func TestDecompressTruncationSweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(79, 80))
	sd := modelDict(rng)
	stream, _, err := Compress(sd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	step := len(stream)/200 + 1
	for l := 0; l < len(stream); l += step {
		if _, _, err := Decompress(stream[:l]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", l, len(stream))
		}
	}
}

// corpusEntry is one seeded corrupt stream. mustErr entries are
// corruptions that cannot possibly decode (truncations, mangled headers);
// the rest are random flips that may land in don't-care bytes, where the
// contract is only "no panic, no hang, no garbage dict".
type corpusEntry struct {
	name    string
	data    []byte
	mustErr bool
}

// corruptCorpus deterministically seeds a corpus of corrupt FedSZ streams
// from a valid one: every-k truncations, targeted header/flag/section
// damage, and random single- and multi-byte flips.
func corruptCorpus(tb testing.TB) []corpusEntry {
	tb.Helper()
	rng := rand.New(rand.NewPCG(101, 102))
	sd := modelDict(rng)
	stream, _, err := Compress(sd, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	var corpus []corpusEntry
	add := func(name string, data []byte, mustErr bool) {
		corpus = append(corpus, corpusEntry{name, data, mustErr})
	}
	// Truncations at every ~2% of the stream, plus the boundary cases.
	step := len(stream)/50 + 1
	for l := 0; l < len(stream); l += step {
		add(fmt.Sprintf("trunc@%d", l), append([]byte(nil), stream[:l]...), true)
	}
	add("trunc@-1", append([]byte(nil), stream[:len(stream)-1]...), true)
	// Targeted header damage.
	flip := func(name string, off int, xor byte) {
		bad := append([]byte(nil), stream...)
		bad[off] ^= xor
		add(name, bad, true)
	}
	flip("magic", 0, 0xFF)
	flip("version", 4, 0x55)
	// Unknown compressor name: corrupt the first name byte past its length
	// prefix (pos 5 is the length, 6 the first character).
	flip("lossy-name", 6, 0x1F)
	// Entry count tampering (count lives after the two names).
	nameEnd := 5 + 1 + int(stream[5])
	nameEnd += 1 + int(stream[nameEnd])
	flip("entry-count", nameEnd, 0xFF)
	// Path flag outside {0,1}.
	flip("path-flag", nameEnd+4, 0x80)
	// Tensor-section damage: flips land inside the compressed blobs (where
	// the multi-stream entropy framing lives), and truncations cut a
	// sub-stream boundary mid-section. A flip may hit don't-care padding, so
	// only the truncations are must-error.
	secs, err := Sections(stream)
	if err != nil {
		tb.Fatal(err)
	}
	off := len(secs.Header)
	for i, ts := range secs.Tensors {
		for _, q := range []int{1, 2, 3} {
			bad := append([]byte(nil), stream...)
			bad[off+len(ts)*q/4] ^= 0xA5
			add(fmt.Sprintf("tensor%d-flip%d", i, q), bad, false)
		}
		add(fmt.Sprintf("tensor%d-trunc", i),
			append([]byte(nil), stream[:off+len(ts)/2]...), true)
		off += len(ts)
	}
	// Random flips: not guaranteed to error, but must never panic.
	for trial := 0; trial < 64; trial++ {
		bad := append([]byte(nil), stream...)
		flips := rng.IntN(4) + 1
		for f := 0; f < flips; f++ {
			bad[rng.IntN(len(bad))] ^= byte(rng.IntN(255) + 1)
		}
		add(fmt.Sprintf("flip%d", trial), bad, false)
	}
	add("hostile-literal-length", hostileLengthStream(tb, stream), true)
	return corpus
}

// hostileLengthStream returns stream with its first tensor's codec blob
// replaced by 33 bytes every framing layer accepts: the blob's own 17-byte
// sz2 header (magic, element count, full layout, resolved bound), the
// lossless-stage byte selecting the zstd-like frame, and a frame whose
// literal blob declares 2^63 bytes. The length only goes wrong inside the
// codec, on a sched.Group goroutine when the decode is parallel.
func hostileLengthStream(tb testing.TB, stream []byte) []byte {
	tb.Helper()
	secs, err := Sections(stream)
	if err != nil {
		tb.Fatal(err)
	}
	hdr, err := ParseHeader(secs.Header)
	if err != nil {
		tb.Fatal(err)
	}
	ts := secs.Tensors[0]
	pt, err := ParseTensorSection(hdr, ts, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if hdr.LossyName != "sz2" || hdr.IsDelta() || len(pt.Blob) < 17 {
		tb.Fatalf("splice needs a plain sz2 tensor section, got %s delta=%v", hdr.LossyName, hdr.IsDelta())
	}
	blob := append([]byte(nil), pt.Blob[:17]...)
	blob = append(blob, 1)                   // lossless stage: zstd-like frame follows
	blob = append(blob, 0x10, 0, 0, 0, 0)    // rawLen 16, raw literals
	blob = binary.AppendUvarint(blob, 1<<63) // literal blob length
	meta := 1 + len(pt.Name) + 2 + 4*len(pt.Shape)
	out := append([]byte(nil), secs.Header...)
	out = ebcl.AppendSection(append(out, ts[:meta]...), blob)
	for _, rest := range secs.Tensors[1:] {
		out = append(out, rest...)
	}
	return append(out, secs.Lossless...)
}

// TestHostileLiteralLength: the spliced stream must fail as ErrCorrupt. The
// default decoder fans tensors out to pool goroutines, where a panic cannot
// be recovered by the caller — it ends the process, which for fedsz-serve
// means one upload ends the server.
func TestHostileLiteralLength(t *testing.T) {
	stream, _, err := Compress(modelDict(rand.New(rand.NewPCG(101, 102))), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := hostileLengthStream(t, stream)
	if _, _, err := DecompressWith(context.Background(), sched.NewPool(1), bad, DecodeOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("serial decode: %v, want ErrCorrupt", err)
	}
	if _, _, err := Decompress(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("default decode: %v, want ErrCorrupt", err)
	}
}

// TestDecompressCorruptCorpus asserts every must-error corpus entry fails
// with ErrCorrupt (never a panic) — under the serial decoder and under the
// new parallel decode at two budgets.
func TestDecompressCorruptCorpus(t *testing.T) {
	corpus := corruptCorpus(t)
	decoders := []struct {
		name string
		run  func([]byte) error
	}{
		{"serial", func(b []byte) error {
			_, _, err := DecompressWith(context.Background(), sched.NewPool(1), b, DecodeOptions{})
			return err
		}},
		{"pool4", func(b []byte) error {
			_, _, err := DecompressWith(context.Background(), sched.NewPool(4), b, DecodeOptions{})
			return err
		}},
		{"default", func(b []byte) error { _, _, err := Decompress(b); return err }},
	}
	for _, dec := range decoders {
		for _, e := range corpus {
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s/%s: decompress panicked: %v", dec.name, e.name, r)
					}
				}()
				return dec.run(e.data)
			}()
			if e.mustErr {
				if err == nil {
					t.Errorf("%s/%s: corrupt stream decoded without error", dec.name, e.name)
				} else if !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s/%s: error %v does not wrap ErrCorrupt", dec.name, e.name, err)
				}
			}
		}
	}
}

// FuzzDecompress drives the decoder with the corrupt corpus as seeds. The
// invariants fuzzing protects: no panic, no hang, and a nil error implies
// a structurally valid state dict.
func FuzzDecompress(f *testing.F) {
	for _, e := range corruptCorpus(f) {
		f.Add(e.data)
	}
	for _, e := range chunkCorruptCorpus(f) {
		f.Add(e.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sd, _, err := Decompress(data)
		if err == nil {
			if sd == nil {
				t.Fatal("nil dict with nil error")
			}
			// A decodable dict must re-marshal without panicking.
			_ = sd.Marshal()
		}
	})
}

// TestEBLCStreamCorruption runs the same random-flip discipline directly
// against each EBLC decoder.
func TestEBLCStreamCorruption(t *testing.T) {
	rng := rand.New(rand.NewPCG(81, 82))
	data := eblctest.WeightLike(rng, 4096)
	for _, name := range compressors.Names() {
		comp, err := compressors.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := comp.CompressAppend(nil, data, ebcl.Rel(1e-2))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 150; trial++ {
			bad := append([]byte(nil), stream...)
			bad[rng.IntN(len(bad))] ^= byte(rng.IntN(255) + 1)
			out, _, err := comp.DecompressFinite(nil, bad)
			if err == nil && len(out) != len(data) && len(out) > ebcl.MaxElements {
				t.Fatalf("%s: corrupt stream produced %d elements", name, len(out))
			}
		}
	}
}

// chunkCorruptCorpus seeds corruptions targeting the v4 chunk jump table:
// shifted per-chunk sizes, inflated and undersized chunk counts, and
// truncations that cut inside a chunk sub-blob. Every entry must fail
// with ErrCorrupt — the jump table is fully validated before any chunk
// decodes, so none of these can reach a codec with out-of-bounds slices.
func chunkCorruptCorpus(tb testing.TB) []corpusEntry {
	tb.Helper()
	rng := rand.New(rand.NewPCG(103, 104))
	sd := modelDict(rng)
	stream, _, err := Compress(sd, Options{ChunkElems: 2048})
	if err != nil {
		tb.Fatal(err)
	}
	if stream[4] != streamVersionV4 {
		tb.Fatalf("fixture stream version %d, want v4", stream[4])
	}
	secs, err := Sections(stream)
	if err != nil {
		tb.Fatal(err)
	}
	hdr, err := ParseHeader(secs.Header)
	if err != nil {
		tb.Fatal(err)
	}
	// Locate the chunked tensor's blob inside the stream. The blob is the
	// section's tail (ParseTensorSection enforces no trailing bytes), so
	// its stream offset is the section end minus the blob length.
	blobOff := -1
	var blob []byte
	off := len(secs.Header)
	for _, sec := range secs.Tensors {
		pt, err := ParseTensorSection(hdr, sec, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if isChunkedBlob(pt.Blob) {
			blobOff = off + len(sec) - len(pt.Blob)
			blob = pt.Blob
			break
		}
		off += len(sec)
	}
	if blobOff < 0 {
		tb.Fatal("fixture stream has no chunked blob")
	}
	chunks, k := binary.Uvarint(blob[1:])
	if k <= 0 || chunks < 2 {
		tb.Fatalf("fixture blob chunk count %d", chunks)
	}
	countOff := blobOff + 1
	tableOff := countOff + k

	var corpus []corpusEntry
	mutate := func(name string, fn func(bad []byte)) {
		bad := append([]byte(nil), stream...)
		fn(bad)
		corpus = append(corpus, corpusEntry{"chunk-" + name, bad, true})
	}
	// Chunk counts outside [2, MaxChunks]; zero, one, and inflated all
	// single-byte uvarints, so the table geometry shifts consistently.
	mutate("count-zero", func(bad []byte) { bad[countOff] = 0 })
	mutate("count-one", func(bad []byte) { bad[countOff] = 1 })
	mutate("count-inflated", func(bad []byte) { bad[countOff] = MaxChunks + 1 })
	// A count that still parses but exceeds the tensor's block grid.
	mutate("count-over-blocks", func(bad []byte) { bad[countOff] = MaxChunks })
	// Jump-table shifts: the sizes must account for the blob exactly, so
	// ±1 on the first entry leaves a gap or overruns the final chunk.
	mutate("table-size+1", func(bad []byte) {
		s := binary.LittleEndian.Uint32(bad[tableOff:])
		binary.LittleEndian.PutUint32(bad[tableOff:], s+1)
	})
	mutate("table-size-1", func(bad []byte) {
		s := binary.LittleEndian.Uint32(bad[tableOff:])
		binary.LittleEndian.PutUint32(bad[tableOff:], s-1)
	})
	mutate("table-size-huge", func(bad []byte) {
		binary.LittleEndian.PutUint32(bad[tableOff:], 0xFFFFFFFF)
	})
	// Truncations that cut inside the jump table and inside a chunk
	// sub-blob (the section length prefix now points past the data).
	for _, cut := range []int{tableOff + 2, tableOff + 4*int(chunks) + 3, blobOff + len(blob)/2} {
		cut := cut
		corpus = append(corpus, corpusEntry{
			fmt.Sprintf("chunk-trunc@%d", cut),
			append([]byte(nil), stream[:cut]...),
			true,
		})
	}
	return corpus
}

// TestDecompressChunkCorruptCorpus: every chunk-targeted corruption fails
// with ErrCorrupt under serial and parallel decode — never a panic, never
// a silent wrong dict.
func TestDecompressChunkCorruptCorpus(t *testing.T) {
	corpus := chunkCorruptCorpus(t)
	decoders := []struct {
		name string
		run  func([]byte) error
	}{
		{"serial", func(b []byte) error {
			_, _, err := DecompressWith(context.Background(), sched.NewPool(1), b, DecodeOptions{})
			return err
		}},
		{"pool4", func(b []byte) error {
			_, _, err := DecompressWith(context.Background(), sched.NewPool(4), b, DecodeOptions{})
			return err
		}},
	}
	for _, dec := range decoders {
		for _, e := range corpus {
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s/%s: decompress panicked: %v", dec.name, e.name, r)
					}
				}()
				return dec.run(e.data)
			}()
			if err == nil {
				t.Errorf("%s/%s: corrupt chunked stream decoded without error", dec.name, e.name)
			} else if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s/%s: error %v does not wrap ErrCorrupt", dec.name, e.name, err)
			}
		}
	}
}
