//go:build linux && amd64

package huffman

// The kernels against unmapped memory: every sub-stream, every output chunk
// and the encode buffer's reserved capacity end right before a PROT_NONE
// page, so a load or store past a slice faults and kills the test binary
// instead of reading a neighbour's bytes.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/sched"
)

// guarded returns n bytes that end where an unmapped page begins, its
// capacity n too. The mapping is released when t ends.
func guarded(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return mem[size-n : size : size]
}

// guardedU16 is guarded for n uint16 slots.
func guardedU16(t *testing.T, n int) []uint16 {
	b := guarded(t, 2*n+2)[2:] // n ≥ 0 slots, still 2-byte aligned
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint16)(unsafe.Pointer(&b[0])), n)
}

func TestKernelsAtGuardPages(t *testing.T) {
	requireKernels(t)
	rng := rand.New(rand.NewPCG(13, 14))
	inputs := map[string][]uint16{
		"quantization-like":      quantLikeSymbols(rng, 3*pairMinSymbols+3),
		"quantization-like 2.5k": quantLikeSymbols(rng, 2500),
		"max length":             fibSymbols(rng, 20),
	}
	for name, syms := range inputs {
		blob, err := EncodeMultiU16(syms, quantAlphabet, DefaultStreams)
		if err != nil {
			t.Fatal(err)
		}

		t.Run("encode "+name, func(t *testing.T) {
			c, _, err := buildCodec(syms, quantAlphabet)
			if err != nil {
				t.Fatal(err)
			}
			defer putCodec(c)
			for _, part := range [][]uint16{syms, syms[:len(syms)/4], syms[:101]} {
				want := appendCodes(make([]byte, 0, 3*len(part)+8), c.enc, part, 0, 0)
				// appendCodes' contract: capacity for the codes plus 8.
				out := guarded(t, len(want)+8)[:0]
				if got := appendCodesU16(out, c.enc, part, 0, 0); !bytes.Equal(got, want) {
					t.Fatalf("%d symbols: kernel bytes differ at the guard page", len(part))
				}
				// Short of it — room for half the codes, or no slack — the
				// kernel stops before a store past the capacity, and the codes
				// go on in a larger buffer (growCodes): the same bytes, no
				// fault at the guard page.
				for _, room := range []int{len(want)/2 + 8, len(want)} {
					short := guarded(t, room)[:0]
					if got := appendCodesU16(short, c.enc, part, 0, 0); !bytes.Equal(got, want) {
						t.Fatalf("%d symbols in %d bytes for %d: the grown bytes differ", len(part), room, len(want))
					}
				}
			}
		})

		t.Run("decode "+name, func(t *testing.T) {
			want, err := decodeMultiRef(blob, quantAlphabet)
			if err != nil {
				t.Fatal(err)
			}
			for _, withPairs := range []bool{false, true} {
				m, srcs, outs := openBlob(t, blob, quantAlphabet)
				g := multiBlob{c: m.c, streams: DefaultStreams}
				for k := 0; k < 4; k++ {
					g.srcs[k] = guarded(t, len(srcs[k]))
					copy(g.srcs[k], srcs[k])
					g.outs[k] = guardedU16(t, len(outs[k]))
				}
				var pairs []uint64
				if withPairs {
					pairs = m.c.buildPairs()
				}
				if err := g.decodeWith(pairs); err != nil {
					t.Fatal(err)
				}
				var got []uint16
				for _, o := range g.outs[:4] {
					got = append(got, o...)
				}
				sameDecode(t, fmt.Sprintf("pairs=%v", withPairs), got, nil, want, nil)
				m.release()
			}
			sched.PutUint16s(want)
		})
		sched.PutBytes(blob)
	}
}
