package huffman

// Differential pins for the entropy kernels: appendCodes against the
// per-symbol bitio.Writer encoder it replaced, the wide decode loop with and
// without the double-symbol table against per-stream decodeSeq, and the decode tables read from a length table's runs
// against the code the encoder assigned. The replaced loops survive only
// here, as references.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/bitio"
	"repro/internal/lanes"
	"repro/internal/sched"
)

// encodeRef encodes syms in the format EncodeMultiU16 picks for them, with
// every code pushed through its own bitio.Writer.WriteBits call.
func encodeRef(t testing.TB, syms []uint16, alphabet, streams int) []byte {
	t.Helper()
	freqs := make([]uint64, alphabet)
	for _, v := range syms {
		freqs[v]++
	}
	c, err := NewCodec(freqs)
	if err != nil {
		t.Fatal(err)
	}
	n := len(syms)
	if streams == 1 || n < multiMinSymbols {
		w := new(bitio.Writer)
		writeLengthTable(w, c.lengths)
		w.WriteBits(uint64(n), 32)
		for _, v := range syms {
			c.Encode(w, int(v))
		}
		return w.Bytes()
	}
	tw := new(bitio.Writer)
	writeLengthTable(tw, c.lengths)
	tbl := tw.Bytes()
	out := append([]byte{multiMagic}, binary.AppendUvarint(nil, uint64(n))...)
	out = binary.AppendUvarint(out, uint64(streams))
	out = binary.AppendUvarint(out, uint64(len(tbl)))
	out = append(out, tbl...)
	var body []byte
	base, ext := n/streams, n%streams
	off := 0
	for i := 0; i < streams; i++ {
		cnt := base
		if i < ext {
			cnt++
		}
		w := new(bitio.Writer)
		for _, v := range syms[off : off+cnt] {
			c.Encode(w, int(v))
		}
		sub := w.Bytes()
		out = binary.LittleEndian.AppendUint32(out, uint32(len(sub)))
		body = append(body, sub...)
		off += cnt
	}
	return append(out, body...)
}

// decodeMultiRef decodes a blob the way DecodeMultiU16 does, except that
// every sub-stream goes through decodeSeq on its own: the reference the
// wide loop is held to, with and without pairs.
func decodeMultiRef(data []byte, alphabet int) ([]uint16, error) {
	if len(data) == 0 || data[0] != multiMagic {
		return DecodeAllU16(data, alphabet)
	}
	var m multiBlob
	out, err := openMulti(data, alphabet, &m)
	if err != nil {
		return nil, err
	}
	defer putCodec(m.c)
	var r bitio.Reader
	for i := 0; i < m.streams; i++ {
		r.Reset(m.srcs[i])
		if err := decodeSeq(&r, m.c, m.outs[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeLoop decodes a 4-stream blob through decode4, with the
// double-symbol table when withPairs and without it otherwise, whatever the
// blob's size, then decodeSeq. ok is false when data is no 4-stream blob with
// a nonempty code.
func decodeLoop(data []byte, alphabet int, withPairs bool) (out []uint16, ok bool, err error) {
	if len(data) == 0 || data[0] != multiMagic {
		return nil, false, nil
	}
	var m multiBlob
	if out, err = openMulti(data, alphabet, &m); err != nil {
		return nil, true, err
	}
	defer putCodec(m.c)
	if m.streams != DefaultStreams || len(m.c.table) == 0 {
		sched.PutUint16s(out)
		return nil, false, nil
	}
	var pairs []uint64
	if withPairs {
		pairs = m.c.buildPairs()
	}
	return out, true, m.decodeWith(pairs)
}

// sameDecode fails t unless got/gotErr match want/wantErr: the same error,
// or the same symbols.
func sameDecode(t *testing.T, what string, got []uint16, gotErr error, want []uint16, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: err %v, reference err %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d symbols, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: symbol %d = %d, reference %d", what, i, got[i], want[i])
		}
	}
}

// checkDecoders decodes data through DecodeMultiU16 and, for a 4-stream
// blob, through decode4 with and without pairs, and holds every result to
// decodeMultiRef's.
func checkDecoders(t *testing.T, what string, data []byte, alphabet int) {
	t.Helper()
	want, wantErr := decodeMultiRef(data, alphabet)
	got, err := DecodeMultiU16(data, alphabet)
	sameDecode(t, what+" DecodeMultiU16", got, err, want, wantErr)
	for _, withPairs := range []bool{false, true} {
		if got, ok, err := decodeLoop(data, alphabet, withPairs); ok {
			sameDecode(t, fmt.Sprintf("%s decode4 (pairs=%v)", what, withPairs), got, err, want, wantErr)
		}
	}
}

// fibSymbols returns a shuffled sequence whose symbol i occurs fib(i+1)
// times, for syms symbols: Fibonacci weights build the deepest code.
func fibSymbols(rng *rand.Rand, syms int) []uint16 {
	var out []uint16
	a, b := 1, 1
	for s := 0; s < syms; s++ {
		for k := 0; k < a; k++ {
			out = append(out, uint16(s))
		}
		a, b = b, a+b
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestEntropyKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	sizes := []int{multiMinSymbols - 1, multiMinSymbols, multiMinSymbols + 1,
		pairMinSymbols - 1, pairMinSymbols, pairMinSymbols + 1, 16383, 16384, 16385, 1 << 17}

	t.Run("encode", func(t *testing.T) {
		for _, n := range sizes {
			syms := quantLikeSymbols(rng, n)
			for streams := 1; streams <= maxStreams; streams++ {
				want := encodeRef(t, syms, quantAlphabet, streams)
				lanes.BothPaths(func(path string) {
					got, err := EncodeMultiU16(syms, quantAlphabet, streams)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s n=%d streams=%d: kernel bytes differ from the per-symbol encoder", path, n, streams)
					}
					sched.PutBytes(got)
				})
			}
		}
		// The single-stream byte path: zstd-like literals.
		lits := make([]byte, 3000)
		for i := range lits {
			lits[i] = byte(rng.NormFloat64() * 20)
		}
		got, err := EncodeAllU8(lits)
		if err != nil {
			t.Fatal(err)
		}
		wide := make([]uint16, len(lits))
		for i, v := range lits {
			wide[i] = uint16(v)
		}
		if !bytes.Equal(got, encodeRef(t, wide, 256, 1)) {
			t.Fatal("EncodeAllU8: kernel bytes differ from the per-symbol encoder")
		}
		sched.PutBytes(got)
	})

	t.Run("decode", func(t *testing.T) {
		for _, n := range sizes {
			syms := quantLikeSymbols(rng, n)
			blob, err := EncodeMultiU16(syms, quantAlphabet, DefaultStreams)
			if err != nil {
				t.Fatal(err)
			}
			muts := map[string][]byte{}
			if blob[0] == multiMagic {
				muts = corruptMultiBlobs(t, blob)
				for flips := 0; flips < 16; flips++ {
					mut := append([]byte(nil), blob...)
					mut[rng.IntN(len(mut))] ^= 1 << rng.IntN(8)
					muts[fmt.Sprintf("flip %d", flips)] = mut
				}
			}
			lanes.BothPaths(func(path string) {
				what := fmt.Sprintf("%s n=%d", path, n)
				checkDecoders(t, what, blob, quantAlphabet)
				if got, err := DecodeMultiU16(blob, quantAlphabet); err != nil {
					t.Fatalf("%s: %v", what, err)
				} else {
					sameDecode(t, what+" round trip", got, nil, syms, nil)
				}
				for name, mut := range muts {
					checkDecoders(t, what+" "+name, mut, quantAlphabet)
				}
			})
		}
	})

	t.Run("max length and single symbol", func(t *testing.T) {
		deep := fibSymbols(rng, 25)
		freqs := make([]uint64, 64)
		for _, v := range deep {
			freqs[v]++
		}
		c, err := NewCodec(freqs)
		if err != nil {
			t.Fatal(err)
		}
		if c.maxLen != MaxCodeLen {
			t.Fatalf("Fibonacci input reaches code length %d, want %d", c.maxLen, MaxCodeLen)
		}
		inputs := map[string][]uint16{"max length": deep}
		for _, n := range []int{100, 600, pairMinSymbols + 3} {
			one := make([]uint16, n)
			for i := range one {
				one[i] = 42
			}
			inputs[fmt.Sprintf("single symbol n=%d", n)] = one
		}
		for name, syms := range inputs {
			for _, streams := range []int{1, DefaultStreams, 7} {
				want := encodeRef(t, syms, 64, streams)
				lanes.BothPaths(func(path string) {
					got, err := EncodeMultiU16(syms, 64, streams)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("%s %s streams=%d", path, name, streams)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: kernel bytes differ from the per-symbol encoder", what)
					}
					checkDecoders(t, what, got, 64)
					for _, withPairs := range []bool{false, true} {
						if out, ok, err := decodeLoop(got, 64, withPairs); ok {
							sameDecode(t, what, out, err, syms, nil)
						}
					}
					sched.PutBytes(got)
				})
			}
		}
	})

	t.Run("tables from runs", func(t *testing.T) {
		for trial := 0; trial < 200; trial++ {
			alphabet := rng.IntN(4096) + 2
			enc, err := NewCodec(randomFreqs(rng, alphabet))
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewCodecFromLengths(enc.lengths)
			if err != nil {
				t.Fatal(err)
			}
			ml := int(enc.maxLen)
			if dec.maxLen != enc.maxLen || dec.tableBits != enc.tableBits ||
				!slices.Equal(dec.firstCode[1:ml+1], enc.firstCode[1:ml+1]) || !slices.Equal(dec.index[1:ml+2], enc.index[1:ml+2]) ||
				!slices.Equal(dec.sorted, enc.sorted) || !slices.Equal(dec.table, enc.table) {
				t.Fatalf("trial %d: tables read from runs differ from the encoder's", trial)
			}
			checkCodeRanks(t, enc)
			checkPairs(t, dec)
		}
	})
}

// checkCodeRanks holds the decoder's code-by-rank rule to the codes init
// assigned, and the lookup table to every code: each decodes to its symbol.
func checkCodeRanks(t *testing.T, c *Codec) {
	t.Helper()
	for l := 1; l <= int(c.maxLen); l++ {
		for i := c.index[l]; i < c.index[l+1]; i++ {
			s := c.sorted[i]
			code := c.firstCode[l] + uint32(i-c.index[l])
			if c.enc[s] != code<<encShift|uint32(l) {
				t.Fatalf("symbol %d: rank code %b/%d, encoder's %b/%d", s, code, l, c.enc[s]>>encShift, c.enc[s]&encLenMask)
			}
			w := new(bitio.Writer)
			w.WriteBits(uint64(code), uint(l))
			w.WriteBits(0, 32)
			r := bitio.NewReader(w.Bytes())
			if got, ok := c.decodeFast(r); !ok || got != int(s) || r.BitsRemaining() != 32+(8-l%8)%8 {
				t.Fatalf("symbol %d: table decodes its code to %d (ok=%v)", s, got, ok)
			}
		}
	}
}

// checkPairs holds every double-symbol entry to two table decodes of the
// bits that index it.
func checkPairs(t *testing.T, c *Codec) {
	t.Helper()
	if len(c.table) == 0 {
		return
	}
	tb := c.tableBits
	for p, e := range c.buildPairs() {
		if e == 0 {
			if first := c.table[p]; first&entryLink == 0 && first&entryLenMask != 0 {
				t.Fatalf("index %b: zero pair entry over a direct table entry", p)
			}
			continue
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(p)<<(64-tb))
		r := bitio.NewReader(b[:])
		s1, _ := c.decodeFast(r)
		want := uint64(s1)
		if e>>40 == 1 {
			s2, _ := c.decodeFast(r)
			want |= uint64(s2)<<16 | 1<<40
		}
		want |= uint64(64-r.BitsRemaining()) << 32
		if e != want {
			t.Fatalf("index %b: pair entry %x, table decodes %x", p, e, want)
		}
		if uint(64-r.BitsRemaining()) > tb {
			t.Fatalf("index %b: pair takes %d bits of a %d-bit index", p, 64-r.BitsRemaining(), tb)
		}
	}
}

// TestWarmMultiZeroAllocs holds the warm multi-stream coders to zero
// allocations on both sides of pairMinSymbols.
func TestWarmMultiZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random; pooled scratch misses and allocates")
	}
	// A collection inside the measurement would empty every sync.Pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewPCG(3, 3))
	// The single-stream fallback (under multiMinSymbols) reaches the encode
	// kernel through encodeSeq's generic code.
	for _, n := range append([]int{multiMinSymbols - 1}, benchSizes...) {
		syms := quantLikeSymbols(rng, n)
		blob, err := EncodeMultiU16(syms, quantAlphabet, DefaultStreams)
		if err != nil {
			t.Fatal(err)
		}
		lanes.BothPaths(func(path string) {
			if got := testing.AllocsPerRun(20, func() {
				b, err := EncodeMultiU16(syms, quantAlphabet, DefaultStreams)
				if err != nil {
					t.Fatal(err)
				}
				sched.PutBytes(b)
			}); got != 0 {
				t.Errorf("%s n=%d: EncodeMultiU16 %.1f allocs/op, want 0", path, n, got)
			}
			if got := testing.AllocsPerRun(20, func() {
				out, err := DecodeMultiU16(blob, quantAlphabet)
				if err != nil {
					t.Fatal(err)
				}
				sched.PutUint16s(out)
			}); got != 0 {
				t.Errorf("%s n=%d: DecodeMultiU16 %.1f allocs/op, want 0", path, n, got)
			}
		})
		sched.PutBytes(blob)
	}
}

// spreadSymbols returns n symbols around quantRadius, normal with standard
// deviation sigma; sigma 0 gives a single-symbol code.
func spreadSymbols(rng *rand.Rand, n int, sigma float64) []uint16 {
	syms := make([]uint16, n)
	for i := range syms {
		syms[i] = uint16(quantRadius + int(rng.NormFloat64()*sigma))
	}
	return syms
}

// pairGateCase is a blob BenchmarkPairGate times and TestPairGate holds the
// gate's choice on.
type pairGateCase struct {
	name      string
	syms      []uint16
	wantPairs bool
}

// pairGateCases are quantization-like codes around the size gate, then
// codes of growing spread well above it.
func pairGateCases() []pairGateCase {
	rng := rand.New(rand.NewPCG(5, 6))
	var cases []pairGateCase
	for _, c := range []struct {
		n         int
		wantPairs bool
	}{{1 << 12, false}, {1 << 13, false}, {pairMinSymbols - 1, false}, {pairMinSymbols, true}, {12 << 10, true}, {1 << 14, true}, {1 << 15, true}} {
		cases = append(cases, pairGateCase{fmt.Sprintf("n=%d", c.n), quantLikeSymbols(rng, c.n), c.wantPairs})
	}
	for _, c := range []struct {
		sigma     float64
		wantPairs bool
	}{{0, false}, {1, true}, {4, true}, {8, true}, {16, false}, {64, false}} {
		cases = append(cases, pairGateCase{fmt.Sprintf("n=65536/sigma=%g", c.sigma), spreadSymbols(rng, 1<<16, c.sigma), c.wantPairs})
	}
	return cases
}

// TestPairGate holds usePairs to the side of each BenchmarkPairGate case
// the benchmark measured as faster.
func TestPairGate(t *testing.T) {
	cases := pairGateCases()
	lanes.BothPaths(func(path string) {
		for _, c := range cases {
			blob, err := EncodeMultiU16(c.syms, quantAlphabet, DefaultStreams)
			if err != nil {
				t.Fatal(err)
			}
			var m multiBlob
			out, err := openMulti(blob, quantAlphabet, &m)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.usePairs(len(out)); got != c.wantPairs {
				t.Errorf("%s %s (tableBits %d): usePairs %v, want %v", path, c.name, m.c.tableBits, got, c.wantPairs)
			}
			sched.PutUint16s(out)
			putCodec(m.c)
			sched.PutBytes(blob)
		}
	})
}

// BenchmarkPairGate decodes each pairGateCases blob through decode4 without
// and with the double-symbol table (its build included), alternating every iteration so
// both see the same host, and reports the median time ratio pairs/one:
// below 1 the pair loop is ahead. The gate belongs where the ratio crosses 1.
func BenchmarkPairGate(b *testing.B) {
	for _, c := range pairGateCases() {
		blob, err := EncodeMultiU16(c.syms, quantAlphabet, DefaultStreams)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			decode := func(withPairs bool) time.Duration {
				t0 := time.Now()
				out, _, err := decodeLoop(blob, quantAlphabet, withPairs)
				d := time.Since(t0)
				if err != nil {
					b.Fatal(err)
				}
				sched.PutUint16s(out)
				return d
			}
			ratios := make([]float64, b.N)
			for i := range ratios {
				var one, pairs time.Duration
				if i%2 == 0 {
					one, pairs = decode(false), decode(true)
				} else {
					pairs, one = decode(true), decode(false)
				}
				ratios[i] = float64(pairs) / float64(one)
			}
			slices.Sort(ratios)
			b.ReportMetric(ratios[len(ratios)/2], "pairs/one")
		})
	}
}
