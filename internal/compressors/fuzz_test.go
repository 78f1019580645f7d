package compressors_test

import (
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/compressors"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/lanes"
)

// FuzzDecompressFinite holds the decode side of the whole codec contract to
// arbitrary bytes: the first byte picks the codec (modulo the table), the
// rest is its stream. Nothing may panic, an error wraps ebcl.ErrCorrupt, and
// a success decodes the element count the header states with a verdict equal
// to a scan of what it wrote, since the fold trusts that verdict. The seeds
// are each codec's REL, ABS, constant and empty streams.
func FuzzDecompressFinite(f *testing.F) {
	names := compressors.Names()
	weights := eblctest.WeightLike(rand.New(rand.NewPCG(54, 1)), 700)
	for i := 256; i < 512; i++ {
		weights[i] = float32(i) / 1000 // a ramp: sz2's regression blocks
	}
	for i, name := range names {
		c, err := compressors.Get(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, in := range []struct {
			data []float32
			p    ebcl.Params
		}{
			{weights, ebcl.Rel(1e-2)},
			{weights, ebcl.Abs(1e-3)},
			{[]float32{2.5, 2.5, 2.5}, ebcl.Rel(1e-2)},
			{nil, ebcl.Rel(1e-2)},
		} {
			stream, err := c.CompressAppend([]byte{byte(i)}, in.data, in.p)
			if err != nil {
				f.Fatalf("%s %v: %v", name, in.p, err)
			}
			f.Add(stream)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		c, err := compressors.Get(names[int(in[0])%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		stream := in[1:]
		n, _, _, herr := ebcl.ParseHeader(stream, c.Magic())
		if herr == nil && n > 1<<16 {
			t.Skip("declares more than 64 Ki elements")
		}
		out, m, err := c.DecompressFinite(nil, stream)
		if err != nil {
			if !errors.Is(err, ebcl.ErrCorrupt) {
				t.Fatalf("%s: error %v does not wrap ErrCorrupt", c.Name(), err)
			}
			return
		}
		if herr != nil || n != len(out) {
			t.Fatalf("%s: decoded %d elements, the header states %d (%v)", c.Name(), len(out), n, herr)
		}
		var want lanes.AbsMax
		if len(out) > 0 {
			want = lanes.AbsMax(lanes.Scan(out).AbsBits)
		}
		if m != want {
			t.Fatalf("%s: verdict bits %#x, a scan of the %d values %#x", c.Name(), m, len(out), want)
		}
	})
}
