package huffman

// The decode kernels' exits, stream by stream: where a kernel stops on a zero
// entry, past link entries, near a stream's end and at an output chunk's
// end, and the preconditions the Go side checks before calling a kernel.
// Every case is also decoded whole on both paths and held to decodeMultiRef.

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/bitio"
	"repro/internal/lanes"
	"repro/internal/sched"
)

// requireKernels skips t on a CPU without the kernels.
func requireKernels(t *testing.T) {
	t.Helper()
	if !lanes.On() {
		t.Skip("this CPU lacks AVX2, BMI1 or BMI2")
	}
}

// kernelStops runs a decode kernel (decode4PairsBMI2 when withPairs) over
// srcs into outs, and returns where each stream stopped: the symbols written
// and the bits left to read.
func kernelStops(c *Codec, srcs *[4][]byte, outs *[4][]uint16, withPairs bool) (ps, left [4]int) {
	var rs [4]bitio.Reader
	for k := range rs {
		rs[k].Reset(srcs[k])
	}
	var pairs []uint64
	if withPairs {
		pairs = c.buildPairs()
	}
	ps = c.decode4Kernel(srcs, outs, pairs, [4]*bitio.Reader{&rs[0], &rs[1], &rs[2], &rs[3]})
	for k := range rs {
		left[k] = rs[k].BitsRemaining()
	}
	return ps, left
}

// openBlob opens a 4-stream blob for kernelStops; the caller releases it.
func openBlob(t *testing.T, blob []byte, alphabet int) (*multiBlob, *[4][]byte, *[4][]uint16) {
	t.Helper()
	m := new(multiBlob)
	if _, err := openMulti(blob, alphabet, m); err != nil {
		t.Fatal(err)
	}
	if m.streams != DefaultStreams {
		t.Fatalf("blob has %d streams", m.streams)
	}
	return m, (*[4][]byte)(m.srcs[:4]), (*[4][]uint16)(m.outs[:4])
}

// release returns what openBlob took from the pools.
func (m *multiBlob) release() {
	sched.PutUint16s(m.outs[0][:0])
	putCodec(m.c)
}

// checkBothPaths holds a whole decode of blob to decodeMultiRef on the
// kernels and on the Go loops.
func checkBothPaths(t *testing.T, what string, blob []byte, alphabet int) {
	t.Helper()
	lanes.BothPaths(func(path string) { checkDecoders(t, path+" "+what, blob, alphabet) })
}

// chunkBounds returns where each of the four chunks of an n-symbol blob
// starts, and n.
func chunkBounds(n int) [5]int {
	var b [5]int
	base, ext := n/4, n%4
	for k := 0; k < 4; k++ {
		b[k+1] = b[k] + base
		if k < ext {
			b[k+1]++
		}
	}
	return b
}

func TestDecodeKernelExits(t *testing.T) {
	requireKernels(t)
	rng := rand.New(rand.NewPCG(11, 12))

	// A single-symbol code leaves the pattern 1 without an entry: a set bit
	// at symbol j of stream k stops that stream exactly there, with the
	// streams before it one symbol further on in the same round.
	t.Run("zero entry", func(t *testing.T) {
		const n, j = 4*1000 + 3, 300
		one := make([]uint16, n)
		for i := range one {
			one[i] = 42
		}
		clean, err := EncodeMultiU16(one, 64, DefaultStreams)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			for _, withPairs := range []bool{false, true} {
				blob := append([]byte(nil), clean...)
				m, srcs, outs := openBlob(t, blob, 64)
				srcs[k][j/8] |= 0x80 >> (j % 8)
				ps, left := kernelStops(m.c, srcs, outs, withPairs)
				for s := 0; s < 4; s++ {
					want := j
					if s < k {
						want++
					}
					if ps[s] != want || left[s] != 8*len(srcs[s])-want {
						t.Errorf("pairs=%v set bit in stream %d: stream %d stopped at %d symbols, %d bits left; want %d, %d",
							withPairs, k, s, ps[s], left[s], want, 8*len(srcs[s])-want)
					}
				}
				m.release()
				checkBothPaths(t, fmt.Sprintf("zero entry in stream %d", k), blob, 64)
			}
		}
		sched.PutBytes(clean)
	})

	// Fibonacci weights give codes up to MaxCodeLen bits, most of the rare
	// ones past tableBits: every stream must get past some link entry.
	t.Run("link entries", func(t *testing.T) {
		syms := fibSymbols(rng, 20)
		blob, err := EncodeMultiU16(syms, 64, DefaultStreams)
		if err != nil {
			t.Fatal(err)
		}
		freqs := make([]uint64, 64)
		for _, v := range syms {
			freqs[v]++
		}
		enc, err := NewCodec(freqs)
		if err != nil {
			t.Fatal(err)
		}
		b := chunkBounds(len(syms))
		for _, withPairs := range []bool{false, true} {
			m, srcs, outs := openBlob(t, blob, 64)
			ps, _ := kernelStops(m.c, srcs, outs, withPairs)
			for k := 0; k < 4; k++ {
				linked := 0
				for _, s := range syms[b[k] : b[k]+ps[k]] {
					if uint(enc.lengths[s]) > m.c.tableBits {
						linked++
					}
				}
				if linked == 0 {
					t.Errorf("pairs=%v stream %d: the kernel stopped at %d symbols without following a link", withPairs, k, ps[k])
				}
				if ps[k] < b[k+1]-b[k]-64 {
					t.Errorf("pairs=%v stream %d: the kernel stopped at %d of %d symbols", withPairs, k, ps[k], b[k+1]-b[k])
				}
			}
			m.release()
		}
		checkBothPaths(t, "link entries", blob, 64)
		sched.PutBytes(blob)
	})

	// A stream whose chunk codes shorter than the others' runs out first:
	// the kernel stops with fewer than 8 of its bytes left to load, and the
	// other streams well before their ends.
	t.Run("stream near its end", func(t *testing.T) {
		const n = 4 * 4096
		b := chunkBounds(n)
		for k := 0; k < 4; k++ {
			syms := quantLikeSymbols(rng, n)
			for i := b[k]; i < b[k+1]; i++ {
				syms[i] = quantRadius
			}
			blob, err := EncodeMultiU16(syms, quantAlphabet, DefaultStreams)
			if err != nil {
				t.Fatal(err)
			}
			for _, withPairs := range []bool{false, true} {
				m, srcs, outs := openBlob(t, blob, quantAlphabet)
				_, left := kernelStops(m.c, srcs, outs, withPairs)
				for s := 0; s < 4; s++ {
					if (s == k) != (left[s] < 64) {
						t.Errorf("pairs=%v short stream %d: stream %d stopped with %d bits left", withPairs, k, s, left[s])
					}
				}
				m.release()
			}
			checkBothPaths(t, fmt.Sprintf("short stream %d", k), blob, quantAlphabet)
			sched.PutBytes(blob)
		}
	})

	// With 16 zero bytes after every stream, only the output chunks stop the
	// kernel. Chunk lengths differ by one when n%4 != 0. A code whose
	// symbol 0 is the one-bit code 0 and whose index is 3 bits wide decodes
	// two 0s per pair probe, so in chunks 1–3, all 0s, a pair lands on the
	// last two slots when the shortest chunk is even. Chunk 0 opens with
	// six rarer symbols, five probes of one symbol each, and lags. Nothing
	// past a chunk may be written.
	t.Run("output chunk ends", func(t *testing.T) {
		for _, n := range []int{4 * 600, 4*600 + 1, 4*600 + 2, 4*600 + 3, 4*601 + 2} {
			syms := make([]uint16, n)
			copy(syms, []uint16{1, 2, 3, 1, 2, 1})
			blob, err := EncodeMultiU16(syms, 4, DefaultStreams)
			if err != nil {
				t.Fatal(err)
			}
			for _, withPairs := range []bool{false, true} {
				m, srcs, outs := openBlob(t, blob, 4)
				if m.c.tableBits != 3 {
					t.Fatalf("tableBits %d, want 3", m.c.tableBits)
				}
				const sentinel = 0xBEEF
				var padded [4][]byte
				var chunks [4][]uint16
				minLen := n
				for k := 0; k < 4; k++ {
					padded[k] = append(append([]byte(nil), srcs[k]...), make([]byte, 16)...)
					buf := make([]uint16, len(outs[k])+2)
					for i := range buf {
						buf[i] = sentinel
					}
					chunks[k] = buf[:len(outs[k])]
					minLen = min(minLen, len(outs[k]))
				}
				ps, _ := kernelStops(m.c, &padded, &chunks, withPairs)
				for k := 0; k < 4; k++ {
					l := len(chunks[k])
					if tail := chunks[k][l : l+2]; tail[0] != sentinel || tail[1] != sentinel {
						t.Errorf("n=%d pairs=%v stream %d: wrote past its chunk", n, withPairs, k)
					}
					switch {
					case !withPairs && ps[k] != minLen:
						t.Errorf("n=%d stream %d: decode4 kernel stopped at %d, want the shortest chunk's %d", n, k, ps[k], minLen)
					case withPairs && (ps[k] > l || ps[k] < l-8):
						t.Errorf("n=%d stream %d: pair kernel stopped at %d of %d", n, k, ps[k], l)
					case withPairs && k > 0 && l%2 == 0 && l == minLen && ps[k] != l:
						t.Errorf("n=%d stream %d: pair kernel stopped at %d of %d, want a pair in the last two slots", n, k, ps[k], l)
					}
					for i, s := range chunks[k][:ps[k]] {
						if want := syms[chunkBounds(n)[k]+i]; s != want {
							t.Fatalf("n=%d pairs=%v stream %d: symbol %d = %d, want %d", n, withPairs, k, i, s, want)
						}
					}
				}
				m.release()
			}
			checkBothPaths(t, fmt.Sprintf("n=%d", n), blob, 4)
			sched.PutBytes(blob)
		}
	})
}

// TestKernelPreconditions pins what the Go side guarantees a kernel before
// calling it.
func TestKernelPreconditions(t *testing.T) {
	// Every symbol indexes the code table: buildCodec refuses a symbol
	// outside the alphabet, and the table covers the whole alphabet.
	for _, alphabet := range []int{1, 2, 256, quantAlphabet} {
		syms := []uint16{0, uint16(alphabet - 1)}
		c, _, err := buildCodec(syms, alphabet)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.enc) != alphabet {
			t.Errorf("alphabet %d: code table of %d entries", alphabet, len(c.enc))
		}
		putCodec(c)
		if _, _, err := buildCodec(append(syms, uint16(alphabet)), alphabet); err == nil {
			t.Errorf("alphabet %d: symbol %d accepted", alphabet, alphabet)
		}
	}

	// EncodeMultiU16's buffer covers the coded bytes, a padding byte a
	// stream, and the kernel's 8-byte store.
	rng := rand.New(rand.NewPCG(1, 2))
	syms := quantLikeSymbols(rng, 3*multiMinSymbols)
	c, bits, err := buildCodec(syms, quantAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	putCodec(c)
	blob, err := EncodeMultiU16(syms, quantAlphabet, DefaultStreams)
	if err != nil {
		t.Fatal(err)
	}
	if _, streams := multiSizePos(t, blob); cap(blob)-len(blob) < 8 || uint64(cap(blob)) < bits/8+uint64(streams)+8 {
		t.Errorf("blob of %d bytes in a buffer of %d, codes %d bits", len(blob), cap(blob), bits)
	}

	// The decode kernels start with an 8-byte load of each stream: a
	// stream of 7 bytes keeps them from running at all.
	requireKernels(t)
	full, err := EncodeMultiU16(quantLikeSymbols(rng, 4*multiMinSymbols), quantAlphabet, DefaultStreams)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		m, srcs, outs := openBlob(t, full, quantAlphabet)
		srcs[k] = srcs[k][:7]
		for _, withPairs := range []bool{false, true} {
			ps, left := kernelStops(m.c, srcs, outs, withPairs)
			for s := 0; s < 4; s++ {
				if ps[s] != 0 || left[s] != 8*len(srcs[s]) {
					t.Errorf("7-byte stream %d: stream %d moved to %d symbols, %d bits left", k, s, ps[s], left[s])
				}
			}
		}
		m.release()
	}
	sched.PutBytes(full)
	sched.PutBytes(blob)
}

// TestSingleSymbolFill holds fillSingle to the decode loops: it takes exactly
// the blobs whose sub-streams are a single-symbol code's zero bits and
// nothing else, and any blob it leaves decodes, or fails, as before.
func TestSingleSymbolFill(t *testing.T) {
	for _, streams := range []int{DefaultStreams, 7} {
		for _, n := range []int{multiMinSymbols, 4*1000 + 3, 145833} {
			one := make([]uint16, n)
			for i := range one {
				one[i] = 42
			}
			clean, err := EncodeMultiU16(one, 64, streams)
			if err != nil {
				t.Fatal(err)
			}
			sizePos, _ := multiSizePos(t, clean)
			variants := map[string]struct {
				blob []byte
				fill bool
			}{"clean": {clean, true}}
			var m multiBlob
			if _, err := openMulti(clean, 64, &m); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < streams; k++ {
				if cnt := len(m.outs[k]); cnt%8 != 0 {
					// A set padding bit: the loops accept it, fillSingle leaves it.
					pad := append([]byte(nil), clean...)
					pad[sizePos+4*streams+chunkStart(&m, k)+len(m.srcs[k])-1] |= 1
					variants[fmt.Sprintf("padding bit in stream %d", k)] = struct {
						blob []byte
						fill bool
					}{pad, false}
				}
				if k+1 < streams {
					// A zero byte moved from stream k+1 to stream k.
					moved := append([]byte(nil), clean...)
					binary.LittleEndian.PutUint32(moved[sizePos+4*k:], uint32(len(m.srcs[k])+1))
					binary.LittleEndian.PutUint32(moved[sizePos+4*k+4:], uint32(len(m.srcs[k+1])-1))
					variants[fmt.Sprintf("byte moved into stream %d", k)] = struct {
						blob []byte
						fill bool
					}{moved, false}
				}
			}
			sched.PutUint16s(m.outs[0][:0])
			putCodec(m.c)
			for name, v := range variants {
				what := fmt.Sprintf("streams=%d n=%d %s", streams, n, name)
				// A stream left shorter than its symbols fails in openMulti.
				var mb multiBlob
				if out, err := openMulti(v.blob, 64, &mb); err == nil {
					if got := mb.fillSingle(out); got != v.fill {
						t.Errorf("%s: fillSingle %v, want %v", what, got, v.fill)
					}
					sched.PutUint16s(out)
					putCodec(mb.c)
				} else if v.fill {
					t.Fatalf("%s: %v", what, err)
				}
				checkBothPaths(t, what, v.blob, 64)
				if v.fill {
					got, err := DecodeMultiU16(v.blob, 64)
					sameDecode(t, what, got, err, one, nil)
					sched.PutUint16s(got)
				}
			}
			sched.PutBytes(clean)
			for _, l := range []uint8{2, 5} {
				// The same zero sub-streams under a lone code of l bits: the
				// code is read, but every stream runs out of bits, so the loops
				// refuse the blob and fillSingle must leave it to them.
				what := fmt.Sprintf("streams=%d n=%d lone code of %d bits", streams, n, l)
				blob := loneCodeBlob(n, streams, 42, l)
				var mb multiBlob
				out, err := openMulti(blob, 64, &mb)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if mb.fillSingle(out) {
					t.Errorf("%s: fillSingle took it", what)
				}
				sched.PutUint16s(out)
				putCodec(mb.c)
				if _, err := decodeMultiRef(blob, 64); err == nil {
					t.Fatalf("%s: the reference decodes it", what)
				}
				checkBothPaths(t, what, blob, 64)
			}
		}
	}
}

// loneCodeBlob returns a 64-symbol-alphabet blob of n symbols in streams
// sub-streams whose code gives only sym a length, l bits, and whose
// sub-streams are each ⌈cnt/8⌉ zero bytes: one bit a symbol, the size
// fillSingle takes.
func loneCodeBlob(n, streams int, sym uint16, l uint8) []byte {
	lengths := make([]uint8, 64)
	lengths[sym] = l
	tw := new(bitio.Writer)
	writeLengthTable(tw, lengths)
	tbl := tw.Bytes()
	blob := []byte{multiMagic}
	blob = binary.AppendUvarint(blob, uint64(n))
	blob = binary.AppendUvarint(blob, uint64(streams))
	blob = binary.AppendUvarint(blob, uint64(len(tbl)))
	blob = append(blob, tbl...)
	var body []byte
	for k := 0; k < streams; k++ {
		cnt := n / streams
		if k < n%streams {
			cnt++
		}
		blob = binary.LittleEndian.AppendUint32(blob, uint32((cnt+7)/8))
		body = append(body, make([]byte, (cnt+7)/8)...)
	}
	return append(blob, body...)
}

// chunkStart returns where sub-stream k starts after the jump table.
func chunkStart(m *multiBlob, k int) int {
	off := 0
	for _, s := range m.srcs[:k] {
		off += len(s)
	}
	return off
}
