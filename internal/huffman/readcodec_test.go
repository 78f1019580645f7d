package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/bitio"
	"repro/internal/lanes"
)

// ladderLengths is a complete code whose longest codes are maxLen bits: one
// code each of 1 to 5 bits (spans of 1024 down to 64 primary entries), 31 of
// 10 bits (spans of two), then one code each of 11 to maxLen bits and a
// second of maxLen, behind the top primary prefix. Its coded symbols are
// spread over an alphabet of 4096.
func ladderLengths(maxLen int) []uint8 {
	var ls []uint8
	for l := 1; l <= 5; l++ {
		ls = append(ls, uint8(l))
	}
	for range 31 {
		ls = append(ls, 10)
	}
	for l := 11; l <= maxLen; l++ {
		ls = append(ls, uint8(l))
	}
	ls = append(ls, uint8(maxLen))
	lengths := make([]uint8, quantAlphabet)
	for i, l := range ls {
		lengths[i*97%quantAlphabet] = l
	}
	return lengths
}

// codeBlob encodes syms under lengths' code into a streams-way blob, each
// code through its own bitio.Writer.WriteBits call.
func codeBlob(t testing.TB, lengths []uint8, syms []uint16, streams int) []byte {
	t.Helper()
	c := new(Codec)
	if err := c.init(lengths); err != nil {
		t.Fatal(err)
	}
	tw := new(bitio.Writer)
	writeLengthTable(tw, lengths)
	tbl := tw.Bytes()
	n := len(syms)
	blob := []byte{multiMagic}
	blob = binary.AppendUvarint(blob, uint64(n))
	blob = binary.AppendUvarint(blob, uint64(streams))
	blob = binary.AppendUvarint(blob, uint64(len(tbl)))
	blob = append(blob, tbl...)
	var body []byte
	off := 0
	for k := 0; k < streams; k++ {
		cnt := n / streams
		if k < n%streams {
			cnt++
		}
		w := new(bitio.Writer)
		for _, s := range syms[off : off+cnt] {
			c.Encode(w, int(s))
		}
		off += cnt
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(w.Bytes())))
		body = append(body, w.Bytes()...)
	}
	return append(blob, body...)
}

// TestReadCodecTables holds the decode tables readCodec builds to the
// bit-by-bit reference decoder, through DecodeMultiU16 and decode4 with and
// without pairs, on both lane paths: codes whose longest codes are 11,
// 12, 15 and 24 bits (no secondary table, then secondary tables of growing
// width under the top prefixes), each symbol drawn uniformly so the long
// codes are common, and the single-symbol code, whose table alone is
// incomplete; every blob is also decoded after a deeper one left its stale
// entries in the pooled codec shell. Hostile length tables, an incomplete
// code of several symbols among them, still fail with ErrBadLengths.
func TestReadCodecTables(t *testing.T) {
	rng := rand.New(rand.NewPCG(50, 11))
	type named struct {
		name string
		blob []byte
	}
	var blobs []named // deepest first, lone codes last
	for _, maxLen := range []int{24, 11, 15, 12} {
		lengths := ladderLengths(maxLen)
		var coded []uint16
		for s, l := range lengths {
			if l > 0 {
				coded = append(coded, uint16(s))
			}
		}
		for _, n := range []int{2500, pairMinSymbols + 7} {
			syms := make([]uint16, n)
			for i := range syms {
				syms[i] = coded[rng.IntN(len(coded))]
			}
			blob := codeBlob(t, lengths, syms, DefaultStreams)
			c, err := readCodec(bitio.NewReader(lengthTable(t, blob)), quantAlphabet)
			if err != nil {
				t.Fatal(err)
			}
			if int(c.maxLen) != maxLen {
				t.Fatalf("ladder code reaches %d bits, want %d", c.maxLen, maxLen)
			}
			putCodec(c)
			blobs = append(blobs, named{fmt.Sprintf("maxLen %d, %d symbols", maxLen, n), blob})
		}
	}
	for _, l := range []uint8{1, 5, 15} {
		blob := loneCodeBlob(3000, DefaultStreams, 42, l)
		flipped := append([]byte(nil), blob...)
		flipped[len(flipped)-1] = 0x81
		blobs = append(blobs, named{fmt.Sprintf("lone %d-bit code", l), blob},
			named{fmt.Sprintf("lone %d-bit code, set bits", l), flipped})
	}
	lanes.BothPaths(func(path string) {
		for _, b := range blobs {
			want, wantErr := decodeBitByBit(b.blob, quantAlphabet)
			got, err := DecodeMultiU16(b.blob, quantAlphabet)
			sameDecode(t, path+" "+b.name, got, err, want, wantErr)
			for _, withPairs := range []bool{false, true} {
				if got, ok, err := decodeLoop(b.blob, quantAlphabet, withPairs); ok {
					sameDecode(t, fmt.Sprintf("%s %s decode4 (pairs=%v)", path, b.name, withPairs), got, err, want, wantErr)
				}
			}
		}
		hostile := hostileLengthTables()
		w := new(bitio.Writer)
		writeLengthTable(w, []uint8{2, 2, 2, 0})
		hostile["incomplete code"] = append(w.Bytes(), 0, 0, 0, 0)
		for name, blob := range hostile {
			if _, err := DecodeMultiU16(blob, 4); !errors.Is(err, ErrBadLengths) {
				t.Errorf("%s %s: err %v, want ErrBadLengths", path, name, err)
			}
		}
	})
}

// decodeBitByBit decodes a multi-stream blob symbol by symbol through the
// reference decoder alone, which reads the canonical code and never the
// decode tables.
func decodeBitByBit(data []byte, alphabet int) ([]uint16, error) {
	var m multiBlob
	out, err := openMulti(data, alphabet, &m)
	if err != nil {
		return nil, err
	}
	defer putCodec(m.c)
	var r bitio.Reader
	for i := 0; i < m.streams; i++ {
		r.Reset(m.srcs[i])
		for j := range m.outs[i] {
			s, err := m.c.Decode(&r)
			if err != nil {
				return nil, err
			}
			m.outs[i][j] = uint16(s)
		}
		if r.BitsRemaining() >= 8 {
			return nil, ErrCorrupt
		}
	}
	return out, nil
}

// lengthTable returns the serialized length table of a multi-stream blob.
func lengthTable(t testing.TB, blob []byte) []byte {
	t.Helper()
	pos := 1
	var hdr [3]uint64
	for i := range hdr {
		v, k := binary.Uvarint(blob[pos:])
		if k <= 0 {
			t.Fatal("blob header")
		}
		hdr[i], pos = v, pos+k
	}
	return blob[pos : pos+int(hdr[2])]
}

// BenchmarkReadCodec times readCodec, the length table's runs through the
// finished decode tables, on quantization-code blobs of 2.5 K, 10 K and
// 40 K symbols: the per-blob set-up a small update pays for every tensor.
func BenchmarkReadCodec(b *testing.B) {
	for _, n := range []int{2500, 10000, 40000} {
		blob, err := EncodeMultiU16(szQuantStream(n), quantAlphabet, DefaultStreams)
		if err != nil {
			b.Fatal(err)
		}
		tbl := lengthTable(b, blob)
		b.Run(fmt.Sprintf("symbols=%d", n), func(b *testing.B) {
			var r bitio.Reader
			for range b.N {
				r.Reset(tbl)
				c, err := readCodec(&r, quantAlphabet)
				if err != nil {
					b.Fatal(err)
				}
				putCodec(c)
			}
		})
	}
}
