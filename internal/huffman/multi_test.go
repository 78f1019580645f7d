package huffman

// Tests for the multi-stream (v2) bulk format: round trips across stream
// counts and sizes, v1 fallback interop, and must-error guarantees on
// corrupted sub-stream boundaries.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/lanes"
	"repro/internal/sched"
)

// quantLikeSymbols draws a skewed, escape-bearing distribution shaped like
// real quantization codes.
func quantLikeSymbols(rng *rand.Rand, n int) []uint16 {
	syms := make([]uint16, n)
	for i := range syms {
		if rng.IntN(200) == 0 {
			syms[i] = quantEscape
			continue
		}
		syms[i] = uint16(quantRadius + int(rng.NormFloat64()*6))
	}
	return syms
}

// multiSizePos parses a multi-stream blob up to its jump table, returning
// the byte offset of the per-stream size words and the stream count.
func multiSizePos(t *testing.T, blob []byte) (pos, streams int) {
	t.Helper()
	if len(blob) == 0 || blob[0] != multiMagic {
		t.Fatal("not a multi-stream blob")
	}
	pos = 1
	for field := 0; field < 3; field++ {
		v, k := binary.Uvarint(blob[pos:])
		if k <= 0 {
			t.Fatal("bad multi header uvarint")
		}
		pos += k
		switch field {
		case 1:
			streams = int(v)
		case 2:
			pos += int(v) // skip the length table
		}
	}
	return pos, streams
}

func TestMultiRoundTripStreamCounts(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 5))
	for _, n := range []int{0, 1, 7, multiMinSymbols - 1, multiMinSymbols, multiMinSymbols + 1, 4096, 100_000} {
		syms := quantLikeSymbols(rng, n)
		for _, streams := range []int{1, 2, 3, 4, 5, 8, maxStreams} {
			enc, err := EncodeMultiU16(syms, quantAlphabet, streams)
			if err != nil {
				t.Fatalf("n=%d streams=%d: encode: %v", n, streams, err)
			}
			dec, err := DecodeMultiU16(enc, quantAlphabet)
			if err != nil {
				t.Fatalf("n=%d streams=%d: decode: %v", n, streams, err)
			}
			if len(dec) != n {
				t.Fatalf("n=%d streams=%d: decoded %d symbols", n, streams, len(dec))
			}
			for i := range syms {
				if dec[i] != syms[i] {
					t.Fatalf("n=%d streams=%d: symbol %d = %d, want %d", n, streams, i, dec[i], syms[i])
				}
			}
			sched.PutUint16s(dec)
			sched.PutBytes(enc)
		}
	}
}

// TestMultiFormatSelection locks the framing decisions: small inputs and
// streams==1 stay on the v1 single-stream layout (decodable by
// DecodeAllU16), larger ones get the marker byte.
func TestMultiFormatSelection(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 2))
	small := quantLikeSymbols(rng, multiMinSymbols-1)
	enc, err := EncodeMultiU16(small, quantAlphabet, DefaultStreams)
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] == multiMagic {
		t.Fatal("sub-threshold input should use the single-stream layout")
	}
	dec, err := DecodeAllU16(enc, quantAlphabet)
	if err != nil {
		t.Fatalf("fallback blob must decode as v1: %v", err)
	}
	sched.PutUint16s(dec)
	sched.PutBytes(enc)

	big := quantLikeSymbols(rng, 4*multiMinSymbols)
	enc1, err := EncodeMultiU16(big, quantAlphabet, 1)
	if err != nil {
		t.Fatal(err)
	}
	if enc1[0] == multiMagic {
		t.Fatal("streams=1 should use the single-stream layout")
	}
	// A v1 blob over any alphabet ≤ 65536 starts with the high byte of a
	// 24-bit count ≤ 0x01 — the marker cannot be ambiguous.
	if enc1[0] > 0x01 {
		t.Fatalf("single-stream first byte 0x%02x breaks the marker disambiguation", enc1[0])
	}
	sched.PutBytes(enc1)

	encN, err := EncodeMultiU16(big, quantAlphabet, DefaultStreams)
	if err != nil {
		t.Fatal(err)
	}
	if encN[0] != multiMagic {
		t.Fatal("multi-stream blob missing marker byte")
	}
	sched.PutBytes(encN)
}

func TestMultiDecodeMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 44))
	syms := quantLikeSymbols(rng, 20_000)
	single, err := EncodeAllU16(syms, quantAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	// DecodeMultiU16 must transparently decode v1 blobs...
	dec, err := DecodeMultiU16(single, quantAlphabet)
	if err != nil {
		t.Fatalf("DecodeMultiU16 on v1 blob: %v", err)
	}
	for i := range syms {
		if dec[i] != syms[i] {
			t.Fatalf("v1 fallback symbol %d = %d, want %d", i, dec[i], syms[i])
		}
	}
	sched.PutUint16s(dec)
	sched.PutBytes(single)
}

func TestEncodeMultiArgErrors(t *testing.T) {
	syms := make([]uint16, 1024)
	if _, err := EncodeMultiU16(syms, quantAlphabet, 0); err == nil {
		t.Fatal("streams=0 must error")
	}
	if _, err := EncodeMultiU16(syms, quantAlphabet, maxStreams+1); err == nil {
		t.Fatal("streams over the cap must error")
	}
	if _, err := EncodeMultiU16(syms, 1<<16+1, DefaultStreams); err == nil {
		t.Fatal("alphabet over uint16 must error")
	}
	syms[512] = 99
	if _, err := EncodeMultiU16(syms, 64, DefaultStreams); err == nil {
		t.Fatal("symbol outside alphabet must error")
	}
}

// corruptMultiBlobs builds a family of structurally corrupted multi-stream
// blobs, every one of which must fail decoding (never panic, never succeed).
func corruptMultiBlobs(t *testing.T, blob []byte) map[string][]byte {
	t.Helper()
	sizePos, streams := multiSizePos(t, blob)
	clone := func() []byte { return append([]byte(nil), blob...) }
	muts := map[string][]byte{
		"truncated mid-substream":   blob[:len(blob)-3],
		"truncated at jump table":   blob[:sizePos+2],
		"truncated after header":    blob[:1],
		"size inflated":             clone(),
		"size deflated":             clone(),
		"boundary shifted (sum ok)": clone(),
		"stream count zero":         clone(),
		"stream count over cap":     clone(),
		"symbol count inflated":     clone(),
	}
	s0 := binary.LittleEndian.Uint32(muts["size inflated"][sizePos:])
	binary.LittleEndian.PutUint32(muts["size inflated"][sizePos:], s0+1)
	binary.LittleEndian.PutUint32(muts["size deflated"][sizePos:], s0-1)
	// Shift one boundary while keeping the total intact: stream 0 swallows
	// stream 1's first byte. The per-stream slack check must catch it.
	b := muts["boundary shifted (sum ok)"]
	s1 := binary.LittleEndian.Uint32(b[sizePos+4:])
	binary.LittleEndian.PutUint32(b[sizePos:], s0+1)
	binary.LittleEndian.PutUint32(b[sizePos+4:], s1-1)
	// The stream-count uvarint sits right after the symbol-count uvarint.
	nLen := 0
	for _, v := range blob[1:] {
		nLen++
		if v < 0x80 {
			break
		}
	}
	muts["stream count zero"][1+nLen] = 0
	if streams >= 0x80 {
		t.Fatal("test assumes single-byte stream count")
	}
	muts["stream count over cap"][1+nLen] = maxStreams + 1
	muts["symbol count inflated"][1] = 0x7F // bigger count, same payload
	return muts
}

func TestDecodeMultiCorruptBoundaries(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 1))
	syms := quantLikeSymbols(rng, 8192)
	blob, err := EncodeMultiU16(syms, quantAlphabet, DefaultStreams)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range corruptMultiBlobs(t, blob) {
		out, err := DecodeMultiU16(mut, quantAlphabet)
		if err == nil {
			sched.PutUint16s(out)
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
	sched.PutBytes(blob)
}

// benchSizes are the blob sizes the multi-stream benchmarks time, one on
// each side of pairMinSymbols: ingest_small's 2.5 k-element layers and a
// 64 Ki-symbol tensor.
var benchSizes = []int{2500, 1 << 16}

// TestSpareBytesRefused holds every blob shape to one end-of-stream rule: a
// stream that decodes its declared symbols with a whole byte or more left
// over is ErrCorrupt. A single-stream blob under multiMinSymbols through
// DecodeMultiU16 and an EncodeAllU8 blob through DecodeAllU8 each refuse one
// appended byte and a halved symbol count; a 4-stream and a 3-stream blob
// refuse a byte added to their last sub-stream, its jump-table size raised
// to match. Unaltered, every blob decodes to its symbols.
func TestSpareBytesRefused(t *testing.T) {
	rng := rand.New(rand.NewPCG(58, 1))
	small := quantLikeSymbols(rng, 300)
	lits := make([]byte, 3000)
	for i := range lits {
		lits[i] = byte(rng.NormFloat64() * 20)
	}
	u16 := func(blob []byte) error {
		out, err := DecodeMultiU16(blob, quantAlphabet)
		if err == nil {
			sched.PutUint16s(out)
		}
		return err
	}
	u8 := func(blob []byte) error {
		out, err := DecodeAllU8(blob)
		if err == nil {
			sched.PutBytes(out)
		}
		return err
	}
	single, err := EncodeMultiU16(small, quantAlphabet, DefaultStreams)
	if err != nil {
		t.Fatal(err)
	}
	if single[0] == multiMagic {
		t.Fatal("a 300-symbol blob should be single-stream")
	}
	bytesBlob, err := EncodeAllU8(lits)
	if err != nil {
		t.Fatal(err)
	}
	type shape struct {
		name     string
		blob     []byte
		decode   func([]byte) error
		alphabet int
		n        int
	}
	shapes := []shape{
		{"single-stream u16", single, u16, quantAlphabet, len(small)},
		{"single-stream u8", bytesBlob, u8, 256, len(lits)},
	}
	for _, streams := range []int{DefaultStreams, 3} {
		blob, err := EncodeMultiU16(quantLikeSymbols(rng, 5000), quantAlphabet, streams)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{fmt.Sprintf("%d-stream", streams), blob, u16, quantAlphabet, 5000})
	}
	lanes.BothPaths(func(path string) {
		for _, s := range shapes {
			if err := s.decode(s.blob); err != nil {
				t.Fatalf("%s %s: %v", path, s.name, err)
			}
			spare := append(slices.Clone(s.blob), 0)
			if s.blob[0] == multiMagic {
				sizePos, streams := multiSizePos(t, spare)
				last := spare[sizePos+4*(streams-1):]
				binary.LittleEndian.PutUint32(last, binary.LittleEndian.Uint32(last)+1)
			}
			if err := s.decode(spare); err != ErrCorrupt {
				t.Errorf("%s %s with a spare byte: err %v, want ErrCorrupt", path, s.name, err)
			}
			if s.blob[0] == multiMagic {
				continue
			}
			// The 32-bit symbol count follows the length table, MSB first.
			r := bitio.NewReader(s.blob)
			c, err := readCodec(r, s.alphabet)
			if err != nil {
				t.Fatal(err)
			}
			putCodec(c)
			at := 8*len(s.blob) - r.BitsRemaining()
			fewer := slices.Clone(s.blob)
			for i := 0; i < 32; i++ {
				bit := byte(s.n/2>>(31-i)) & 1
				k, sh := (at+i)/8, 7-(at+i)%8
				fewer[k] = fewer[k]&^(1<<sh) | bit<<sh
			}
			if err := s.decode(fewer); err != ErrCorrupt {
				t.Errorf("%s %s with its symbol count halved: err %v, want ErrCorrupt", path, s.name, err)
			}
		}
	})
	for _, s := range shapes {
		sched.PutBytes(s.blob)
	}
}

func BenchmarkMultiEncode(b *testing.B) {
	for _, n := range benchSizes {
		syms := quantLikeSymbols(rand.New(rand.NewPCG(5, 6)), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc, err := EncodeMultiU16(syms, quantAlphabet, DefaultStreams)
				if err != nil {
					b.Fatal(err)
				}
				sched.PutBytes(enc)
			}
		})
	}
}

func BenchmarkMultiDecode(b *testing.B) {
	for _, n := range benchSizes {
		syms := quantLikeSymbols(rand.New(rand.NewPCG(5, 6)), n)
		enc, err := EncodeMultiU16(syms, quantAlphabet, DefaultStreams)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := DecodeMultiU16(enc, quantAlphabet)
				if err != nil {
					b.Fatal(err)
				}
				sched.PutUint16s(out)
			}
		})
	}
}

// boundsOf is what a quantizer would report of syms: the least and greatest
// symbol other than 0, and the count of 0s.
func boundsOf(syms []uint16) Bounds {
	b := Bounds{Lo: 0xffff}
	for _, s := range syms {
		if s == 0 {
			b.Zeros++
			continue
		}
		b.Lo, b.Hi = min(b.Lo, s), max(b.Hi, s)
	}
	return b
}

// sampledRoundTrip encodes syms with a code from every 8th symbol on both
// lane paths and requires DecodeMultiU16 to give them back exactly and the
// two paths to write the same blob, which it returns.
func sampledRoundTrip(t *testing.T, syms []uint16, alphabet int) []byte {
	t.Helper()
	var blobs [][]byte
	lanes.BothPaths(func(path string) {
		blob, err := EncodeMultiSampled(syms, alphabet, DefaultStreams, 8, boundsOf(syms))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := DecodeMultiU16(blob, alphabet)
		if err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
		if !slices.Equal(got, syms) {
			t.Fatalf("%s: %d symbols do not round-trip", path, len(syms))
		}
		sched.PutUint16s(got)
		blobs = append(blobs, blob)
	})
	for _, b := range blobs[1:] {
		if !slices.Equal(b, blobs[0]) {
			t.Fatal("the kernel and the Go loop wrote different blobs")
		}
	}
	return blobs[0]
}

// TestSampledCodeRoundTrip: a code built from every 8th symbol still codes
// every symbol present. The least and greatest symbol and one 0 each occur
// once, at positions no sample reads, and round-trip; on quantization-like
// codes the sampled blob is within 0.5 % of the full count's. A sample
// that sees only one symbol underestimates the coded size many times over,
// and the output grows to fit.
func TestSampledCodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 51))
	syms := quantLikeSymbols(rng, 300_000)
	for i, s := range syms {
		if s == quantEscape || s <= quantRadius-60 || s >= quantRadius+60 {
			syms[i] = quantRadius
		}
	}
	syms[8*1000+3], syms[8*2000+5], syms[8*3000+1] = quantRadius-100, quantRadius+100, quantEscape
	blob := sampledRoundTrip(t, syms, quantAlphabet)
	full, err := EncodeMultiU16(syms, quantAlphabet, DefaultStreams)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > len(full)+len(full)/200 {
		t.Errorf("sampled blob %d bytes, the full count's %d", len(blob), len(full))
	}
	t.Logf("sampled %d bytes, full count %d", len(blob), len(full))

	// Every sample reads R; the 7 in 8 symbols it skips, R ± 1, get codes
	// from their floor counts: the estimate is about half the coded size.
	skewed := make([]uint16, 40_000)
	for i := range skewed {
		skewed[i] = uint16(quantRadius + 1 - 2*(i%2))
		if i%8 == 0 {
			skewed[i] = quantRadius
		}
	}
	c, bits, err := buildSampledCodec(skewed, quantAlphabet, 8, boundsOf(skewed))
	if err != nil {
		t.Fatal(err)
	}
	putCodec(c)
	if blob := sampledRoundTrip(t, skewed, quantAlphabet); uint64(len(blob)) < bits/8+64 {
		t.Fatalf("the skewed blob's %d bytes fit the estimate of %d bits: the output never grew", len(blob), bits)
	}
}

// TestAppendMultiPrefix: AppendMulti writes, behind dst's bytes, the blob
// EncodeMultiU16 returns (or the sampled encode's) behind its minimal
// uvarint length, and Parts that add up to the blob. The sizes walk across
// the uvarint widths' edges (128 and 16 Ki bytes), where the width taken
// from the code's estimated size can be one off and the blob moves, on codes
// of one and of several bits a symbol, with a full and a sampled count.
func TestAppendMultiPrefix(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 2))
	check := func(syms []uint16, step int) {
		t.Helper()
		want, err := EncodeMultiSampled(syms, quantAlphabet, DefaultStreams, step, boundsOf(syms))
		if step < 2 {
			want, err = EncodeMultiU16(syms, quantAlphabet, DefaultStreams)
		}
		if err != nil {
			t.Fatal(err)
		}
		dst := append(make([]byte, 0, 16), "head"...)
		got, parts, err := AppendMulti(dst, syms, quantAlphabet, DefaultStreams, step, boundsOf(syms))
		if err != nil {
			t.Fatal(err)
		}
		section := binary.AppendUvarint([]byte("head"), uint64(len(want)))
		if !bytes.Equal(got, append(section, want...)) {
			t.Fatalf("%d symbols, step %d: the section differs from the %d-byte blob behind its uvarint length", len(syms), step, len(want))
		}
		if parts.Table+parts.Jump+parts.Codes != len(want) || parts.Codes <= 0 {
			t.Fatalf("%d symbols: parts %+v for a %d-byte blob", len(syms), parts, len(want))
		}
	}
	skewed := func(n int, spread float64) []uint16 {
		syms := make([]uint16, n)
		for i := range syms {
			syms[i] = uint16(quantRadius + int(rng.NormFloat64()*spread))
		}
		return syms
	}
	for _, c := range []struct{ lo, hi, step int }{{100, 1400, 7}, {126_000, 134_000, 97}, {15_000, 17_000, 11}} {
		for n := c.lo; n < c.hi; n += c.step {
			check(skewed(n, 0.3), 1)
			if n >= multiMinSymbols {
				check(skewed(n, 8), 1)
			}
		}
	}
	for n := 1 << 17; n < 1<<17+4096; n += 64 {
		check(skewed(n, 0.3), 8)
	}
}
