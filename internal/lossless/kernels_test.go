package lossless

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// matchFrame is a blosclz frame (unshuffled) of lit as literals followed by
// one match of n bytes at distance off, and the bytes a byte-at-a-time
// expansion of it gives: the reference the decoder's match copy is held to.
func matchFrame(lit []byte, off, n int) (frame, want []byte) {
	want = append([]byte(nil), lit...)
	start := len(want) - off
	for k := 0; k < n; k++ {
		want = append(want, want[start+k])
	}
	frame = binary.LittleEndian.AppendUint32(nil, uint32(len(want)))
	frame = append(frame, 0) // not shuffled
	frame = appendBlob(frame, lit)
	frame = appendMatch(frame, sequence{matchLen: n, offset: off})
	return frame, want
}

// TestBloscLZMatchCopy holds BloscLZ.Decompress's match copy to the byte
// loop for every offset 1–20 and length 4–300: overlapping matches
// (off < n), which repeat their first off bytes, and plain ones.
func TestBloscLZMatchCopy(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	lit := make([]byte, 24)
	for i := range lit {
		lit[i] = byte(rng.Uint32())
	}
	c := NewBloscLZ()
	for off := 1; off <= 20; off++ {
		for n := lzMinMatch; n <= 300; n++ {
			frame, want := matchFrame(lit[:off+n%5], off, n)
			got, err := c.Decompress(frame)
			if err != nil {
				t.Fatalf("off %d len %d: %v", off, n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("off %d len %d: match copy differs from the byte loop", off, n)
			}
		}
	}
}

// unshuffleRef is shuffleBytes' inverse one byte at a time.
func unshuffleRef(src []byte, elemSize int) []byte {
	out := append([]byte(nil), src...)
	if elemSize <= 1 || len(src) < 2*elemSize {
		return out
	}
	n := len(src) / elemSize
	for b := 0; b < elemSize; b++ {
		for i := 0; i < n; i++ {
			out[i*elemSize+b] = src[b*n+i]
		}
	}
	return out
}

// TestUnshuffleKernel holds unshuffleBytes to the byte loop at every length
// 0–67 (whole steps of eight elements, the element tail and the byte
// remainder) and on a metadata partition of the ingest_small benchmark's
// shape: twelve layers of a 50-element bias, two 50-element batch-norm
// statistics and a step counter, 8 684 bytes serialized.
func TestUnshuffleKernel(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 44))
	check := func(what string, src []byte) {
		t.Helper()
		for _, es := range []int{1, 2, 4, 8} {
			if got, want := unshuffleBytes(src, es), unshuffleRef(src, es); !bytes.Equal(got, want) {
				t.Fatalf("%s, element size %d: unshuffle differs from the byte loop", what, es)
			}
		}
		if got := unshuffleBytes(shuffleBytes(src, 4), 4); !bytes.Equal(got, src) {
			t.Fatalf("%s: unshuffle(shuffle) is not the input", what)
		}
	}
	for n := 0; n <= 67; n++ {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(rng.Uint32())
		}
		check(fmt.Sprintf("%d bytes", n), src)
	}
	part := binary.LittleEndian.AppendUint32(nil, 0x46645A31)
	part = binary.LittleEndian.AppendUint32(part, 48)
	entry := func(name string, vals ...float32) {
		part = binary.LittleEndian.AppendUint16(part, uint16(len(name)))
		part = append(append(part, name...), 1, 1)
		part = binary.LittleEndian.AppendUint32(part, uint32(len(vals)))
		for _, v := range vals {
			part = binary.LittleEndian.AppendUint32(part, math.Float32bits(v))
		}
	}
	stat := func() []float32 {
		v := make([]float32, 50)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v
	}
	for l := 0; l < 12; l++ {
		p := fmt.Sprintf("layer%02d.", l)
		entry(p+"bias", stat()...)
		entry(p+"bn.running_mean", stat()...)
		entry(p+"bn.running_var", stat()...)
		entry(p+"bn.num_batches_tracked", 100)
	}
	if len(part) != 8684 {
		t.Fatalf("partition is %d bytes, want 8684", len(part))
	}
	check("ingest_small partition", part)
	check("ingest_small partition, shuffled", shuffleBytes(part, 4))
}
