package lossless

import (
	"bytes"
	"compress/gzip"
	"compress/zlib"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// corpora produces the payload shapes the FedSZ pipeline actually feeds the
// lossless stage: float32 metadata arrays, repetitive buffers, random noise.
func corpora() map[string][]byte {
	rng := rand.New(rand.NewPCG(10, 20))

	// Small float32 running stats (near-constant values).
	stats := make([]byte, 0, 4*512)
	for i := 0; i < 512; i++ {
		v := float32(1.0 + 0.001*rng.NormFloat64())
		bits := math.Float32bits(v)
		stats = append(stats, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}

	// Repetitive text-like data.
	rep := bytes.Repeat([]byte("federated learning model update metadata "), 200)

	// Incompressible noise.
	noise := make([]byte, 8192)
	for i := range noise {
		noise[i] = byte(rng.Uint32())
	}

	// Tiny and empty buffers.
	return map[string][]byte{
		"float_stats": stats,
		"repetitive":  rep,
		"noise":       noise,
		"tiny":        {1, 2, 3},
		"empty":       {},
		"single":      {42},
	}
}

func TestAllCodecsRoundTrip(t *testing.T) {
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for cname, data := range corpora() {
			enc, err := c.Compress(data)
			if err != nil {
				t.Fatalf("%s/%s compress: %v", name, cname, err)
			}
			dec, err := c.Decompress(enc)
			if err != nil {
				t.Fatalf("%s/%s decompress: %v", name, cname, err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("%s/%s: round trip not bit-exact (%d vs %d bytes)", name, cname, len(dec), len(data))
			}
		}
	}
}

// TestStdCodecsAreTheirNamesakes: "gzip" and "zlib" share one implementation
// and differ only in the stdlib container they wrap, so hold each name to the
// bytes the stdlib writer of that name produces at the default level
// (TestLZByteLock covers the three in-house codecs, not these two).
func TestStdCodecsAreTheirNamesakes(t *testing.T) {
	for name, newWriter := range map[string]func(io.Writer) (io.WriteCloser, error){
		"gzip": func(w io.Writer) (io.WriteCloser, error) { return gzip.NewWriterLevel(w, gzip.DefaultCompression) },
		"zlib": func(w io.Writer) (io.WriteCloser, error) { return zlib.NewWriterLevel(w, zlib.DefaultCompression) },
	} {
		c, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != name {
			t.Errorf("codec registered as %q names itself %q", name, c.Name())
		}
		for cname, data := range corpora() {
			var want bytes.Buffer
			w, err := newWriter(&want)
			if err != nil {
				t.Fatal(err)
			}
			w.Write(data) //nolint:errcheck — a bytes.Buffer cannot fail
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := c.Compress(data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s/%s: output is not the stdlib %s writer's", name, cname, name)
			}
		}
	}
}

func TestRepetitiveDataCompresses(t *testing.T) {
	data := corpora()["repetitive"]
	for _, name := range Names() {
		c, _ := Get(name)
		enc, err := c.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(len(data)) / float64(len(enc))
		if ratio < 3 {
			t.Errorf("%s: ratio %.2f on repetitive data, want >= 3", name, ratio)
		}
	}
}

func TestXZBeatsBloscOnEntropyRichData(t *testing.T) {
	// The paper's Table II ordering: xz's ratio >= blosclz's on metadata.
	data := corpora()["float_stats"]
	bl, _ := Get("blosclz")
	xz, _ := Get("xzlike")
	eb, _ := bl.Compress(data)
	ex, _ := xz.Compress(data)
	if len(ex) > len(eb)+len(data)/20 {
		t.Errorf("xzlike (%d) should not be much worse than blosclz (%d)", len(ex), len(eb))
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"blosclz", "gzip", "xzlike", "zlib", "zstdlike"}
	if len(names) != len(want) {
		t.Fatalf("registry has %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry order %v, want %v", names, want)
		}
	}
	if _, err := Get("nonexistent"); err == nil {
		t.Fatal("want error for unknown codec")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register should panic")
		}
	}()
	Register(NewBloscLZ())
}

func TestDecompressCorrupt(t *testing.T) {
	junk := [][]byte{nil, {1}, {1, 2, 3, 4}, bytes.Repeat([]byte{0xFF}, 64)}
	for _, name := range []string{"blosclz", "zstdlike", "xzlike"} {
		c, _ := Get(name)
		for i, j := range junk {
			if _, err := c.Decompress(j); err == nil {
				// A nil/short buffer decoding successfully to empty output is
				// acceptable only if it declares rawLen 0 — all our junk
				// buffers with >= 5 bytes declare nonzero lengths.
				if i >= 2 {
					t.Errorf("%s: junk case %d decoded without error", name, i)
				}
			}
		}
	}
}

func TestTruncatedStream(t *testing.T) {
	data := corpora()["repetitive"]
	for _, name := range []string{"blosclz", "zstdlike", "xzlike"} {
		c, _ := Get(name)
		enc, _ := c.Compress(data)
		if _, err := c.Decompress(enc[:len(enc)/2]); err == nil {
			t.Errorf("%s: truncated stream decoded without error", name)
		}
	}
}

func TestShuffleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000, 1001, 1002, 1003} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		for _, es := range []int{1, 2, 4, 8} {
			sh := shuffleBytes(data, es)
			un := unshuffleBytes(sh, es)
			if !bytes.Equal(un, data) {
				t.Fatalf("shuffle(%d) round trip failed for n=%d", es, n)
			}
		}
	}
}

func TestShuffleGroupsBytes(t *testing.T) {
	// elements 0x04030201 repeated: after shuffle all 0x01s come first.
	data := bytes.Repeat([]byte{1, 2, 3, 4}, 8)
	sh := shuffleBytes(data, 4)
	for i := 0; i < 8; i++ {
		if sh[i] != 1 || sh[8+i] != 2 || sh[16+i] != 3 || sh[24+i] != 4 {
			t.Fatalf("shuffle layout wrong: % x", sh)
		}
	}
}

func TestLZParseReconstruct(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	cfgs := []matcherConfig{
		{maxChain: 1},
		{maxChain: 32},
		{maxChain: 512, lazy: true},
	}
	inputs := [][]byte{
		[]byte("abcabcabcabcabcabc"),
		bytes.Repeat([]byte{0}, 1000),
		make([]byte, 4096),
	}
	for i := range inputs[2] {
		inputs[2][i] = byte(rng.IntN(4)) // low-entropy random
	}
	for _, cfg := range cfgs {
		for i, in := range inputs {
			seqs, lits := lzParse(in, cfg)
			out, err := lzReconstruct(seqs, lits, len(in))
			if err != nil {
				t.Fatalf("cfg %+v input %d: %v", cfg, i, err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("cfg %+v input %d: reconstruction mismatch", cfg, i)
			}
		}
	}
}

// Property: every codec round-trips arbitrary byte strings.
func TestQuickRoundTripAllCodecs(t *testing.T) {
	for _, name := range Names() {
		c, _ := Get(name)
		f := func(data []byte) bool {
			enc, err := c.Compress(data)
			if err != nil {
				return false
			}
			dec, err := c.Decompress(enc)
			return err == nil && bytes.Equal(dec, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func benchCodec(b *testing.B, name string, compress bool) {
	c, err := Get(name)
	if err != nil {
		b.Fatal(err)
	}
	data := corpora()["float_stats"]
	data = bytes.Repeat(data, 32) // ~64 KB
	enc, _ := c.Compress(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if compress {
			if _, err := c.Compress(data); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := c.Decompress(enc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCompressBloscLZ(b *testing.B)   { benchCodec(b, "blosclz", true) }
func BenchmarkCompressZstdLike(b *testing.B)  { benchCodec(b, "zstdlike", true) }
func BenchmarkCompressXZLike(b *testing.B)    { benchCodec(b, "xzlike", true) }
func BenchmarkCompressGzip(b *testing.B)      { benchCodec(b, "gzip", true) }
func BenchmarkDecompressBloscLZ(b *testing.B) { benchCodec(b, "blosclz", false) }
func BenchmarkDecompressXZLike(b *testing.B)  { benchCodec(b, "xzlike", false) }

// skewedBytes draws n bytes whose order-0 entropy is what mixing a fraction
// p of uniform bytes into a constant gives: p=1 is incompressible, p=0 one
// symbol.
func skewedBytes(rng *rand.Rand, n int, p float64) []byte {
	out := make([]byte, n)
	for i := range out {
		if rng.Float64() < p {
			out[i] = byte(rng.Uint32())
		}
	}
	return out
}

// TestEncodeLiteralsRule: the entropy gate stores uniform bytes raw without
// coding them, Huffman-codes a skewed source, and switches where the order-0
// estimate plus the code-length table crosses zstd's minimum gain of
// len/64 + 2 bytes.
func TestEncodeLiteralsRule(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	const n = 1 << 16
	roundTrip := func(lits []byte) (mode byte, size int) {
		t.Helper()
		blob, mode, err := encodeLiterals(lits)
		if err != nil {
			t.Fatal(err)
		}
		if mode == 0 && (len(blob) == 0 || &blob[0] != &lits[0]) {
			t.Fatal("raw literals were copied; mode 0 must be a view")
		}
		dec, err := decodeLiterals(blob, mode)
		if err != nil || !bytes.Equal(dec, lits) {
			t.Fatalf("mode %d literals do not round-trip: %v", mode, err)
		}
		return mode, len(blob)
	}

	if mode, _ := roundTrip(skewedBytes(rng, n, 1)); mode != 0 {
		t.Fatal("uniform random literals were Huffman-coded")
	}
	if mode, size := roundTrip(skewedBytes(rng, n, 0.3)); mode != 1 || size > n/2 {
		t.Fatalf("skewed literals: mode %d, %d of %d bytes", mode, size, n)
	}
	if mode, _ := roundTrip(skewedBytes(rng, 63, 0)); mode != 0 {
		t.Fatal("literals shorter than a Huffman table were coded")
	}

	// The boundary: c zeros and the rest spread evenly over the other 255
	// values has a closed-form estimate, so find the c where it crosses n
	// minus the minimum gain and test either side of it.
	estimate := func(c int) float64 {
		rest := float64(n-c) / 255
		table := 24.0 + 17*256 // bits: alphabet size, then a run per symbol
		return (table + float64(c)*math.Log2(n/float64(c)) + 255*rest*math.Log2(n/rest)) / 8
	}
	minGain := float64(n/64 + 2)
	c := n / 256
	for estimate(c) >= n-minGain {
		c++
	}
	build := func(zeros int) []byte {
		lits := make([]byte, 0, n)
		lits = append(lits, make([]byte, zeros)...)
		for i := 0; len(lits) < n; i++ {
			lits = append(lits, byte(1+i%255))
		}
		return lits
	}
	// build rounds the 255 other counts to integers, which moves the
	// estimate by under a byte; 16 zeros either side move it by 7.5, against
	// a minimum gain of 1026.
	if huffmanCanPay(build(c - 16)) {
		t.Fatalf("gain below len/64+2 (c=%d) passed the gate", c-16)
	}
	if !huffmanCanPay(build(c + 16)) {
		t.Fatalf("gain above len/64+2 (c=%d) failed the gate", c+16)
	}
}

// mixedFrameInput is the shape the SZ pipelines hand the trailing stage: a
// run the matcher collects, then an incompressible body whose literals the
// gate stores raw.
func mixedFrameInput(rng *rand.Rand, run, body int) []byte {
	in := make([]byte, run, run+body)
	return append(in, skewedBytes(rng, body, 1)...)
}

// TestZstdLikeMixedRawFrame: a frame can carry matches and raw (litMode 0)
// literals together, keeps the run's saving, and round-trips.
func TestZstdLikeMixedRawFrame(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	c := NewZstdLike()
	for _, body := range []int{100, 4096, 1 << 18} {
		in := mixedFrameInput(rng, 1024, body)
		enc, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if enc[4] != 0 {
			t.Fatalf("body %d: litMode %d, want raw literals", body, enc[4])
		}
		if len(enc) > len(in)-1000+24 {
			t.Fatalf("body %d: %d -> %d bytes, the zero run was not collected", body, len(in), len(enc))
		}
		dec, err := c.Decompress(enc)
		if err != nil || !bytes.Equal(dec, in) {
			t.Fatalf("body %d: round trip failed: %v", body, err)
		}
	}
}

// TestMissRunAccelerationKeepsLaterMatches: striding through an
// incompressible region must not blind the parse to a repeat behind it.
func TestMissRunAccelerationKeepsLaterMatches(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 36))
	const body = 1 << 18 // several times xz-like's 32 Ki threshold: every codec strides
	in := skewedBytes(rng, body, 1)
	in = append(in, make([]byte, 1<<12)...)
	for _, name := range []string{"blosclz", "zstdlike", "xzlike"} {
		c, _ := Get(name)
		enc, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > body+1<<11 { // the run is 1<<12 bytes; losing it shows
			t.Errorf("%s: %d -> %d bytes, trailing run lost behind the miss run", name, len(in), len(enc))
		}
		dec, err := c.Decompress(enc)
		if err != nil || !bytes.Equal(dec, in) {
			t.Fatalf("%s: round trip failed: %v", name, err)
		}
	}
}

// TestHostileMatchLength: a sequence declaring a match far longer than the
// frame's raw length must be refused before the copy loop runs, which would
// otherwise append until memory ran out.
func TestHostileMatchLength(t *testing.T) {
	frame := binary.LittleEndian.AppendUint32(nil, 8) // rawLen
	frame = append(frame, 0, 1, 'a')                  // raw literals: "a"
	frame = append(frame, 1, 1)                       // one sequence, litLen 1
	frame = binary.AppendUvarint(frame, 1<<40)        // match code
	frame = append(frame, 0, 0)                       // offset 1
	if _, err := NewZstdLike().Decompress(frame); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile match length: %v, want ErrCorrupt", err)
	}
}

// addLZSeeds seeds f with c's frames over inputs that mix matches with raw
// and with Huffman literals, each also bit-flipped and truncated, every seed
// behind prefix.
func addLZSeeds(f *testing.F, c Codec, prefix ...byte) {
	rng := rand.New(rand.NewPCG(37, 38))
	for _, in := range [][]byte{
		mixedFrameInput(rng, 512, 2048),                           // matches + litMode 0
		append(make([]byte, 300), skewedBytes(rng, 2048, 0.2)...), // matches + litMode 1
		skewedBytes(rng, 1024, 1),                                 // literals only, raw
		corpora()["repetitive"],
		{},
	} {
		enc, err := c.Compress(in)
		if err != nil {
			f.Fatal(err)
		}
		enc = append(prefix, enc...)
		f.Add(enc)
		if len(enc) > 8 {
			bad := append([]byte(nil), enc...)
			bad[len(bad)/2] ^= 0x5A
			f.Add(bad)
			f.Add(enc[:len(enc)-3])
		}
	}
}

// checkLZFrame is the fuzz property: no input may panic, and whatever
// decodes must survive a fresh encode/decode cycle.
func checkLZFrame(t *testing.T, c Codec, data []byte) {
	if len(data) >= 4 && binary.LittleEndian.Uint32(data) > 1<<22 {
		t.Skip("declares more output than a fuzz worker should be asked to produce")
	}
	dec, err := c.Decompress(data)
	if err != nil {
		return
	}
	enc, err := c.Compress(dec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Decompress(enc)
	if err != nil || !bytes.Equal(again, dec) {
		t.Fatalf("re-encoded frame does not round-trip: %v", err)
	}
}

// lzFuzzCodecs is what FuzzLZDecompress's selector byte (mod 3) picks from.
var lzFuzzCodecs = []string{"blosclz", "zstdlike", "xzlike"}

// FuzzLZDecompress drives the three hand-written LZ decoders: the first
// input byte selects the codec, the rest is the frame. Seeds are each
// codec's own frames and damaged copies, plus the hostile-length frames.
func FuzzLZDecompress(f *testing.F) {
	for sel, name := range lzFuzzCodecs {
		c, _ := Get(name)
		addLZSeeds(f, c, byte(sel))
		for _, h := range hostileLZFrames() {
			if h.codec == name {
				f.Add(append([]byte{byte(sel)}, h.frame...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c, _ := Get(lzFuzzCodecs[int(data[0])%len(lzFuzzCodecs)])
		checkLZFrame(t, c, data[1:])
	})
}

// hostileLZFrames are frames whose one declared length is 2^63: converted to
// int it is negative, so a bounds check written as pos+int(l) > len(src)
// passes it and the slice expression that follows panics. field names the
// length that is inflated.
func hostileLZFrames() []struct {
	codec, field string
	frame        []byte
} {
	frame := func(head ...byte) []byte { return binary.AppendUvarint(head, 1<<63) }
	return []struct {
		codec, field string
		frame        []byte
	}{
		{"zstdlike", "litBlobLen", frame(0x10, 0, 0, 0, 0)},
		{"blosclz", "litLen", frame(0x10, 0, 0, 0, 0)},
		{"xzlike", "litBlobLen", frame(0x10, 0, 0, 0, 0, 0, 0)},
		{"xzlike", "ctlBlobLen", frame(0x10, 0, 0, 0, 0, 0, 0, 0)},
	}
}

// TestHostileLengths: an inflated length must come back as ErrCorrupt from
// every LZ decoder, never as a slice-bounds panic.
func TestHostileLengths(t *testing.T) {
	for _, h := range hostileLZFrames() {
		t.Run(h.codec+"/"+h.field, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("decoder panicked: %v", p)
				}
			}()
			c, _ := Get(h.codec)
			if _, err := c.Decompress(h.frame); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("% x: %v, want ErrCorrupt", h.frame, err)
			}
		})
	}
}

// lockInputs are the three fixed inputs of TestLZByteLock.
func lockInputs() map[string][]byte {
	rng := rand.New(rand.NewPCG(41, 42))
	floats := make([]byte, 0, 4*4096)
	for i := 0; i < 4096; i++ {
		floats = binary.LittleEndian.AppendUint32(floats, math.Float32bits(float32(0.05*rng.NormFloat64())))
	}
	// Bell-shaped bytes: few repeats long enough to match, so most of the
	// input reaches the literal stream with its skew intact.
	skewed := make([]byte, 300, 300+1<<14)
	for len(skewed) < cap(skewed) {
		skewed = append(skewed, byte(128+12*rng.NormFloat64()))
	}
	return map[string][]byte{
		"skewed":         skewed,                     // a run to match + Huffman literals
		"float32":        floats,                     // takes the shuffle filter
		"incompressible": skewedBytes(rng, 1<<13, 1), // raw literals, miss-run striding
	}
}

// TestLZByteLock pins the bytes each LZ codec emits. The golden .fsz corpus
// reaches blosclz (metadata partition) and zstd-like with raw literals (the
// SZ2/SZ3 trailing stage) only; nothing else holds xz-like's frames or a
// Huffman-literal zstd-like frame still. A change here is a format or
// encoder-policy change and needs the reason recorded, like a golden update.
func TestLZByteLock(t *testing.T) {
	want := map[string]string{
		"blosclz/skewed":          "c69187b6cb9d1f72c763fd2067babd61b8f7e08cd9c967f7b89d29864babedc9", // 16470 bytes
		"blosclz/float32":         "a36934d79d316dbd04447bf28d6ce45de570433401b00602235d6453dcff1567", // 16214 bytes
		"blosclz/incompressible":  "cbb73064361f5dfb69789a975dc0543fad81825cc08da10ba90493e397cc0494", // 8200 bytes
		"zstdlike/skewed":         "69df3d8c06447bf40cda17eb6e6b8e4c7ca2325b874a96eba740378c2e5e6ce3", // 11733 bytes
		"zstdlike/float32":        "ab9319fcc9c54859bf90af151e89cc464043f2d9a2dc2dec73e35359071608f5", // 15364 bytes
		"zstdlike/incompressible": "02272a31c285821889007cb5bfbd2631be02683c274e41d8c06e82e6d3101056", // 8203 bytes
		"xzlike/skewed":           "779eeeeeb35a348a36d30ed26873dfb9597ba9b8d7848f65b7808c12272c3708", // 11748 bytes
		"xzlike/float32":          "2dc9be871391e4b05cbf1aa337b3230ab12cd95fde52e6436fb41916d3cb7007", // 15116 bytes
		"xzlike/incompressible":   "000805447270c2ca7438d4b93d0b730b8820f8ed3d985c93519a07b6478b30c4", // 8206 bytes
	}
	inputs := lockInputs()
	for _, name := range []string{"blosclz", "zstdlike", "xzlike"} {
		c, _ := Get(name)
		for in, data := range inputs {
			enc, err := c.Compress(data)
			if err != nil {
				t.Fatal(err)
			}
			key := name + "/" + in
			if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != want[key] {
				t.Errorf("%q: %q, // %d bytes", key, got, len(enc))
			}
			if dec, err := c.Decompress(enc); err != nil || !bytes.Equal(dec, data) {
				t.Errorf("%s: round trip failed: %v", key, err)
			}
		}
	}
	enc, _ := NewZstdLike().Compress(inputs["skewed"])
	if enc[4] != 1 {
		t.Fatalf("skewed input: zstd-like litMode %d, the lock needs a Huffman-literal frame", enc[4])
	}
	if enc, _ = NewXZLike().Compress(inputs["skewed"]); enc[5] != 1 {
		t.Fatalf("skewed input: xz-like litMode %d, the lock needs Huffman-coded literals", enc[5])
	}
	if enc, _ = NewXZLike().Compress(inputs["float32"]); enc[6] != 1 {
		t.Fatalf("float32 input: xz-like ctlMode %d, the lock needs a Huffman-coded control stream", enc[6])
	}
}
