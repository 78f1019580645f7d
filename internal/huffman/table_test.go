package huffman

// Differential tests pitting the table-driven decoder against the retained
// bit-by-bit reference decoder: on any input — well-formed, truncated, or
// bit-flipped — the two must produce identical symbols, identical errors,
// and identical stream positions.

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitio"
	"repro/internal/lanes"
	"repro/internal/sched"
)

// Mirrors of ebcl's quantizer constants (huffman cannot import ebcl in
// tests without a cycle): alphabet 2·2048 with escape code 0.
const (
	quantRadius   = 2048
	quantAlphabet = 2 * quantRadius
	quantEscape   = 0
)

// decodeAllRef mirrors DecodeAllU16 using only the reference decoder, and
// refuses a whole spare byte after the last symbol as decodeSeq does.
func decodeAllRef(data []byte, alphabet int) ([]uint16, error) {
	r := bitio.NewReader(data)
	c, err := readCodec(r, alphabet)
	if err != nil {
		return nil, err
	}
	n, err := r.ReadBits(32)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.BitsRemaining()) {
		return nil, ErrCorrupt
	}
	out := make([]uint16, n)
	for i := range out {
		s, err := c.Decode(r)
		if err != nil {
			return nil, err
		}
		out[i] = uint16(s)
	}
	if r.BitsRemaining() >= 8 {
		return nil, ErrCorrupt
	}
	return out, nil
}

// diffDecode decodes data with both decoders and fails the test on any
// divergence. It returns whichever succeeded (nil on agreed error).
func diffDecode(t *testing.T, data []byte, alphabet int) []uint16 {
	t.Helper()
	fast, fastErr := DecodeAllU16(data, alphabet)
	ref, refErr := decodeAllRef(data, alphabet)
	if (fastErr == nil) != (refErr == nil) {
		t.Fatalf("decoder divergence: table err=%v, reference err=%v", fastErr, refErr)
	}
	if fastErr != nil {
		if fastErr.Error() != refErr.Error() {
			t.Fatalf("error divergence: table %v, reference %v", fastErr, refErr)
		}
		return nil
	}
	if len(fast) != len(ref) {
		t.Fatalf("length divergence: table %d, reference %d", len(fast), len(ref))
	}
	for i := range fast {
		if fast[i] != ref[i] {
			t.Fatalf("symbol %d divergence: table %d, reference %d", i, fast[i], ref[i])
		}
	}
	return fast
}

// randomFreqs draws a frequency table whose shape varies from flat to
// Fibonacci-deep, so the resulting codes cover short-only, mixed, and
// secondary-table (length > primaryBits) regimes.
func randomFreqs(rng *rand.Rand, alphabet int) []uint64 {
	freqs := make([]uint64, alphabet)
	switch rng.IntN(4) {
	case 0: // flat-ish
		for i := range freqs {
			freqs[i] = uint64(rng.IntN(8))
		}
	case 1: // heavily skewed: one hot symbol, long tail
		freqs[rng.IntN(alphabet)] = 1 << 20
		for i := range freqs {
			if rng.IntN(3) == 0 {
				freqs[i] += uint64(rng.IntN(3))
			}
		}
	case 2: // exponential decay forces deep codes
		f := uint64(1)
		for i := range freqs {
			freqs[i] = f
			if i%2 == 1 && f < 1<<40 {
				f *= 2
			}
		}
	default: // sparse
		for range make([]struct{}, rng.IntN(alphabet)+1) {
			freqs[rng.IntN(alphabet)] = uint64(rng.IntN(100) + 1)
		}
	}
	// Ensure at least one symbol is coded.
	freqs[rng.IntN(alphabet)] += 1
	return freqs
}

func TestTableVsReferenceRandomTables(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 13))
	for trial := 0; trial < 200; trial++ {
		alphabet := rng.IntN(4096) + 2
		c, err := NewCodec(randomFreqs(rng, alphabet))
		if err != nil {
			t.Fatal(err)
		}
		// Encode a random stream of coded symbols.
		var coded []int
		for s := 0; s < alphabet; s++ {
			if c.CodeLen(s) > 0 {
				coded = append(coded, s)
			}
		}
		n := rng.IntN(512)
		syms := make([]int, n)
		w := new(bitio.Writer)
		for i := range syms {
			syms[i] = coded[rng.IntN(len(coded))]
			c.Encode(w, syms[i])
		}
		data := w.Bytes()

		// Symbol-by-symbol: both decoders must agree on value and position.
		fr, rr := bitio.NewReader(data), bitio.NewReader(data)
		for i := range syms {
			fs, fe := c.DecodeFast(fr)
			rs, re := c.Decode(rr)
			if fe != nil || re != nil {
				t.Fatalf("trial %d sym %d: unexpected errors %v / %v", trial, i, fe, re)
			}
			if fs != rs || fs != syms[i] {
				t.Fatalf("trial %d sym %d: table %d reference %d want %d", trial, i, fs, rs, syms[i])
			}
			if fr.BitsRemaining() != rr.BitsRemaining() {
				t.Fatalf("trial %d sym %d: position divergence %d vs %d bits",
					trial, i, fr.BitsRemaining(), rr.BitsRemaining())
			}
		}
	}
}

func TestTableVsReferenceAdversarial(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 29))
	for trial := 0; trial < 100; trial++ {
		alphabet := rng.IntN(1000) + 2
		n := rng.IntN(300) + 1
		syms := make([]uint16, n)
		for i := range syms {
			// Skewed so codes of many lengths appear.
			syms[i] = uint16(float64(alphabet) * rng.Float64() * rng.Float64())
		}
		enc, err := EncodeAllU16(syms, alphabet)
		if err != nil {
			t.Fatal(err)
		}
		diffDecode(t, enc, alphabet)

		// Truncations must agree (typically: both error).
		for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
			if cut < len(enc) {
				diffDecode(t, enc[:cut], alphabet)
			}
		}
		// Bit flips must agree — anywhere in header, table, or payload.
		for flips := 0; flips < 8; flips++ {
			mut := append([]byte(nil), enc...)
			pos := rng.IntN(len(mut))
			mut[pos] ^= 1 << rng.IntN(8)
			diffDecode(t, mut, alphabet)
		}
	}
}

func TestDecodeAllU16MatchesDecodeAll(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	syms := make([]uint16, 5000)
	for i := range syms {
		syms[i] = uint16(rng.IntN(quantAlphabet))
	}
	enc, err := EncodeAllU16(syms, quantAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := decodeAllRef(enc, quantAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := DecodeAllU16(enc, quantAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.PutUint16s(narrow)
	if len(wide) != len(narrow) || len(narrow) != len(syms) {
		t.Fatalf("lengths %d / %d / %d", len(wide), len(narrow), len(syms))
	}
	for i := range syms {
		if wide[i] != narrow[i] || narrow[i] != syms[i] {
			t.Fatalf("symbol %d: reference %d table %d want %d", i, wide[i], narrow[i], syms[i])
		}
	}
	if _, err := DecodeAllU16(enc, 1<<16+1); err == nil {
		t.Fatal("want error for alphabet exceeding uint16")
	}
}

// fuzzQuant is the alphaSel that FuzzHuffmanRoundTrip maps to quantAlphabet.
const fuzzQuant = uint16(quantAlphabet - 1)

// hostileLengthTables returns length tables that must fail with
// ErrBadLengths, each wrapped as a single-stream blob and as a 4-stream one.
func hostileLengthTables() map[string][]byte {
	type run struct{ l, n uint64 }
	tables := map[string][]run{
		"length over MaxCodeLen": {{MaxCodeLen + 1, 1}, {0, 3}},
		"Kraft violation":        {{1, 3}, {0, 1}},
		"run past the alphabet":  {{2, 5}},
	}
	blobs := make(map[string][]byte)
	for name, runs := range tables {
		w := new(bitio.Writer)
		w.WriteBits(4, 24)
		for _, r := range runs {
			w.WriteBits(r.l, 5)
			w.WriteBits(r.n, 12)
		}
		tbl := append([]byte(nil), w.Bytes()...)
		w.WriteBits(64, 32)
		w.WriteBits(0xA5A5A5A5, 32)
		blobs[name+" (single stream)"] = w.Bytes()
		multi := append([]byte{multiMagic, 64, DefaultStreams, byte(len(tbl))}, tbl...)
		for i := 0; i < DefaultStreams; i++ {
			multi = binary.LittleEndian.AppendUint32(multi, 4)
		}
		blobs[name+" (4 streams)"] = append(multi, make([]byte, 4*DefaultStreams)...)
	}
	return blobs
}

func FuzzHuffmanRoundTrip(f *testing.F) {
	// Seed corpus: valid streams over several alphabets plus raw junk.
	seed1, _ := EncodeAllU16([]uint16{1, 2, 3, 3, 3, 0, 7}, 8)
	rng := rand.New(rand.NewPCG(1, 9))
	quant := make([]uint16, 600)
	for i := range quant {
		quant[i] = uint16(quantRadius + int(rng.NormFloat64()*4))
	}
	seed2, _ := EncodeAllU16(quant, quantAlphabet)
	f.Add(seed1, uint16(8))
	f.Add(seed2, fuzzQuant)
	f.Add([]byte{0x00, 0x01, 0xFF}, uint16(300))
	f.Add(seed2[:len(seed2)/2], fuzzQuant)
	// Multi-stream seeds: valid 4-stream blobs plus boundary corruptions —
	// truncated sub-streams and shifted/inflated jump-table sizes — which the
	// decoder must reject without panicking. The first is under
	// pairMinSymbols, the last three over it.
	jumpTable := func(blob []byte) int {
		sizePos := 1
		for field := 0; field < 3; field++ {
			v, k := binary.Uvarint(blob[sizePos:])
			sizePos += k
			if field == 2 {
				sizePos += int(v)
			}
		}
		return sizePos
	}
	shifted := func(blob []byte, by uint32) []byte {
		sizePos := jumpTable(blob)
		shift := append([]byte(nil), blob...)
		s0 := binary.LittleEndian.Uint32(shift[sizePos:])
		s1 := binary.LittleEndian.Uint32(shift[sizePos+4:])
		binary.LittleEndian.PutUint32(shift[sizePos:], s0+by)
		binary.LittleEndian.PutUint32(shift[sizePos+4:], s1-by)
		return shift
	}
	quantLong := make([]uint16, 4*multiMinSymbols)
	for i := range quantLong {
		quantLong[i] = uint16(quantRadius + int(rng.NormFloat64()*5))
	}
	seed3, _ := EncodeMultiU16(quantLong, quantAlphabet, DefaultStreams)
	f.Add(seed3, fuzzQuant)
	f.Add(seed3[:len(seed3)-5], fuzzQuant)
	f.Add(seed3[:len(seed3)/3], fuzzQuant)
	f.Add(shifted(seed3, 1), fuzzQuant)
	inflate := append([]byte(nil), seed3...)
	sizePos := jumpTable(seed3)
	binary.LittleEndian.PutUint32(inflate[sizePos:], binary.LittleEndian.Uint32(seed3[sizePos:])+7)
	f.Add(inflate, fuzzQuant)
	seed4, _ := EncodeMultiU16(quantLikeSymbols(rng, pairMinSymbols+1000), quantAlphabet, DefaultStreams)
	f.Add(seed4, fuzzQuant)
	f.Add(seed4[:len(seed4)-len(seed4)/8], fuzzQuant)
	f.Add(shifted(seed4, 3), fuzzQuant)
	// Zero sub-streams of one bit a symbol under a lone code of one bit, which
	// decodes, and of five bits, which every path refuses (alphabet 64).
	// The sampled count's case: the least and the greatest symbol once each,
	// at positions 3 and 13, which no sample of every 8th reads.
	f.Add([]byte{20, 21, 19, 1, 20, 22, 18, 20, 21, 19, 20, 22, 18, 60, 20, 21}, fuzzQuant)
	f.Add(loneCodeBlob(4003, DefaultStreams, 42, 1), uint16(63))
	f.Add(loneCodeBlob(4003, DefaultStreams, 42, 5), uint16(63))
	hostile := hostileLengthTables()
	names := make([]string, 0, len(hostile))
	for name := range hostile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(hostile[name], uint16(3))
	}

	f.Fuzz(func(t *testing.T, data []byte, alphaSel uint16) {
		lanes.BothPaths(func(string) { fuzzRoundTrip(t, data, alphaSel) })
	})
}

// fuzzRoundTrip is FuzzHuffmanRoundTrip's check of one input, on whichever
// path lanes.BothPaths selects.
func fuzzRoundTrip(t *testing.T, data []byte, alphaSel uint16) {
	alphabet := int(alphaSel)%4096 + 1
	streams := int(alphaSel>>12)%DefaultStreams + 1

	// Round trip: bytes reduced into the alphabet must survive
	// encode → decode exactly.
	syms := make([]uint16, len(data))
	for i, b := range data {
		syms[i] = uint16(int(b) % alphabet)
	}
	enc, err := EncodeAllU16(syms, alphabet)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeAllU16(enc, alphabet)
	if err != nil {
		t.Fatalf("decode of own encoding: %v", err)
	}
	if len(dec) != len(syms) {
		t.Fatalf("round trip length %d want %d", len(dec), len(syms))
	}
	for i := range syms {
		if dec[i] != syms[i] {
			t.Fatalf("round trip symbol %d: got %d want %d", i, dec[i], syms[i])
		}
	}
	sched.PutUint16s(dec)
	sched.PutBytes(enc)

	// Multi-stream round trip at a fuzz-chosen stream count; the decoder
	// must reproduce the input whether the encoder picked the multi or
	// fallback layout.
	menc, err := EncodeMultiU16(syms, alphabet, streams)
	if err != nil {
		t.Fatalf("multi encode (streams=%d): %v", streams, err)
	}
	mdec, err := DecodeMultiU16(menc, alphabet)
	if err != nil {
		t.Fatalf("multi decode of own encoding (streams=%d): %v", streams, err)
	}
	if len(mdec) != len(syms) {
		t.Fatalf("multi round trip length %d want %d", len(mdec), len(syms))
	}
	for i := range syms {
		if mdec[i] != syms[i] {
			t.Fatalf("multi round trip symbol %d: got %d want %d", i, mdec[i], syms[i])
		}
	}
	sched.PutUint16s(mdec)
	sched.PutBytes(menc)

	// A code from every 8th symbol: the input padded to a multi-stream blob
	// with copies of its first symbol, so a symbol it holds once is still
	// held once, and no sample may lose it.
	if len(syms) > 0 {
		long := slices.Grow(slices.Clone(syms), multiMinSymbols)
		for len(long) < multiMinSymbols {
			long = append(long, syms[0])
		}
		senc, err := EncodeMultiSampled(long, alphabet, max(streams, 2), 8, boundsOf(long))
		if err != nil {
			t.Fatalf("sampled encode: %v", err)
		}
		sdec, err := DecodeMultiU16(senc, alphabet)
		if err != nil || !slices.Equal(sdec, long) {
			t.Fatalf("sampled round trip of %d symbols: %v", len(long), err)
		}
		sched.PutUint16s(sdec)
		sched.PutBytes(senc)
	}

	// Arbitrary bytes through the multi decoder must decode or error,
	// never panic, and exactly as every sub-stream decoded on its own
	// through decodeSeq does: the same symbols, or an error in both.
	out, err := DecodeMultiU16(data, alphabet)
	want, wantErr := decodeMultiRef(data, alphabet)
	sameDecode(t, "DecodeMultiU16", out, err, want, wantErr)
	if err == nil {
		sched.PutUint16s(out)
	}

	// Differential: the raw input treated as a stream must decode (or
	// fail) identically under the table and reference decoders.
	fast, fastErr := DecodeAllU16(data, alphabet)
	ref, refErr := decodeAllRef(data, alphabet)
	if (fastErr == nil) != (refErr == nil) {
		t.Fatalf("decoder divergence: table err=%v, reference err=%v", fastErr, refErr)
	}
	for i := range fast {
		if fast[i] != ref[i] {
			t.Fatalf("symbol %d divergence: table %d reference %d", i, fast[i], ref[i])
		}
	}
}

// wantTable is c's decode table as its canonical code defines it, entry by
// entry: what a fill writing one entry at a time produces. A primary entry
// holds the code of at most tableBits bits its index starts with, or else
// links to a secondary table as wide as the longest code under that prefix
// needs; a secondary entry holds the long code its prefix and index start
// with; every other entry is zero. Only the links' bases are read from
// c.table, and they must tile the table after the primary entries exactly.
func wantTable(t *testing.T, c *Codec) []uint32 {
	t.Helper()
	tb, ml := c.tableBits, uint(c.maxLen)
	want := make([]uint32, len(c.table))
	if len(c.sorted) == 0 {
		return want
	}
	// entryFor is the entry of the code of length lo..hi that the bits-long
	// pattern p starts with, or 0.
	entryFor := func(p uint32, bits, lo, hi uint) uint32 {
		for l := lo; l <= hi; l++ {
			code, first := p>>(bits-l), c.firstCode[l]
			if code >= first && code-first < uint32(c.index[l+1]-c.index[l]) {
				return uint32(c.sorted[c.index[l]+int32(code-first)])<<entryShift | uint32(l)
			}
		}
		return 0
	}
	width := make([]uint, 1<<tb)
	for l := tb + 1; l <= ml; l++ {
		first := c.firstCode[l]
		for code := first; code < first+uint32(c.index[l+1]-c.index[l]); code++ {
			width[code>>(l-tb)] = l - tb
		}
	}
	next := uint32(1) << tb
	for p := uint32(0); p < 1<<tb; p++ {
		if b := width[p]; b > 0 {
			if base := c.table[p] >> entryShift; base != next {
				t.Fatalf("secondary table of prefix %#x at %d, want %d", p, base, next)
			}
			want[p] = next<<entryShift | entryLink | uint32(b)
			for j := uint32(0); j < 1<<b; j++ {
				want[next+j] = entryFor(p<<b|j, tb+b, tb+1, tb+b)
			}
			next += 1 << b
			continue
		}
		want[p] = entryFor(p, tb, 1, tb)
	}
	if int(next) != len(c.table) {
		t.Fatalf("tables end at %d of %d entries", next, len(c.table))
	}
	return want
}

// TestDecodeTableFill holds every decode table readRuns builds — one pooled
// shell reused across alphabets from 1 to 4096 symbols, so each build lands
// on the last one's stale entries — to the entry-by-entry table: random
// codes of every depth, a ladder whose one secondary table has spans of up
// to 2048 entries, and lone codes of 1 and 5 bits.
func TestDecodeTableFill(t *testing.T) {
	var tables [][]uint8
	ladder := make([]uint8, 24)
	for i := range ladder {
		ladder[i] = uint8(min(i+1, 23))
	}
	tables = append(tables, ladder)
	for _, l := range []uint8{1, 5} {
		lone := make([]uint8, 64)
		lone[42] = l
		tables = append(tables, lone, []uint8{l})
	}
	rng := rand.New(rand.NewPCG(26, 29))
	for trial := 0; trial < 100; trial++ {
		alphabet := rng.IntN(4096) + 1
		c, err := NewCodec(randomFreqs(rng, alphabet))
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, c.Lengths())
	}

	shell, wide := new(Codec), 0
	for i, lengths := range tables {
		w := new(bitio.Writer)
		writeLengthTable(w, lengths)
		if err := shell.readRuns(bitio.NewReader(w.Bytes()), len(lengths)); err != nil {
			t.Fatalf("table %d: %v", i, err)
		}
		want := wantTable(t, shell)
		for j := range want {
			if shell.table[j] != want[j] {
				t.Fatalf("table %d (alphabet %d, maxLen %d): entry %d is %#x, want %#x",
					i, len(lengths), shell.maxLen, j, shell.table[j], want[j])
			}
		}
		for l := uint(1); l+4 <= shell.tableBits; l++ {
			if shell.index[l+1] > shell.index[l] {
				wide++
				break
			}
		}
	}
	if wide < 10 {
		t.Fatalf("%d tables had a primary span of 16 or more entries, want 10 or more", wide)
	}
}
