package tensor

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewAndIndexing(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.NumElems() != 24 {
		t.Fatalf("NumElems = %d", tt.NumElems())
	}
	if tt.SizeBytes() != 96 {
		t.Fatalf("SizeBytes = %d", tt.SizeBytes())
	}
}

func TestFromDataShapeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched FromData should panic")
		}
	}()
	FromData(make([]float32, 5), 2, 3)
}

func TestReshapeSharesData(t *testing.T) {
	a := New(6)
	b := a.Reshape(2, 3)
	b.Data[5] = 9
	if a.Data[5] != 9 {
		t.Fatal("reshape must share backing data")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(3)
	a.Fill(1)
	b := a.Clone()
	b.Data[0] = 7
	if a.Data[0] != 1 {
		t.Fatal("clone must not alias")
	}
}

func makeDict() *StateDict {
	sd := NewStateDict()
	w := FromData([]float32{0.1, -0.2, 0.3, 0.4, -0.5, 0.6}, 2, 3)
	sd.Add("conv1.weight", KindWeight, w)
	sd.Add("conv1.bias", KindBias, FromData([]float32{0.01, -0.02}, 2))
	sd.Add("bn1.running_mean", KindRunningStat, FromData([]float32{1.5, 2.5}, 2))
	sd.Add("bn1.num_batches", KindScalarMeta, FromData([]float32{42}, 1))
	return sd
}

func TestStateDictBasics(t *testing.T) {
	sd := makeDict()
	if sd.Len() != 4 {
		t.Fatalf("Len = %d", sd.Len())
	}
	if sd.NumParams() != 11 {
		t.Fatalf("NumParams = %d", sd.NumParams())
	}
	if sd.SizeBytes() != 44 {
		t.Fatalf("SizeBytes = %d", sd.SizeBytes())
	}
	if sd.Get("conv1.bias") == nil || sd.Get("nope") != nil {
		t.Fatal("Get lookup broken")
	}
	// Order preserved.
	names := []string{"conv1.weight", "conv1.bias", "bn1.running_mean", "bn1.num_batches"}
	for i, e := range sd.Entries() {
		if e.Name != names[i] {
			t.Fatalf("order violated at %d: %s", i, e.Name)
		}
	}
}

func TestStateDictDuplicatePanics(t *testing.T) {
	sd := makeDict()
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add should panic")
		}
	}()
	sd.Add("conv1.weight", KindWeight, New(1))
}

func TestAggregationOps(t *testing.T) {
	a := makeDict()
	b := a.Clone()
	acc := a.Zero()
	if err := acc.AddScaled(a, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := acc.AddScaled(b, 0.5); err != nil {
		t.Fatal(err)
	}
	// 0.5a + 0.5a == a
	d, err := acc.MaxAbsDiff(a)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-6 {
		t.Fatalf("FedAvg identity broken: maxdiff %v", d)
	}
	acc.Scale(2)
	d, _ = acc.MaxAbsDiff(a)
	if d == 0 {
		t.Fatal("Scale had no effect")
	}
}

func TestIncompatibleDicts(t *testing.T) {
	a := makeDict()
	b := NewStateDict()
	b.Add("x", KindWeight, New(3))
	if err := a.AddScaled(b, 1); err == nil {
		t.Fatal("want structural mismatch error")
	}
	if _, err := a.MaxAbsDiff(b); err == nil {
		t.Fatal("want structural mismatch error")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	sd := makeDict()
	buf := sd.Marshal()
	got, err := UnmarshalStateDict(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != sd.Len() {
		t.Fatalf("Len %d != %d", got.Len(), sd.Len())
	}
	for i, e := range sd.Entries() {
		g := got.Entries()[i]
		if g.Name != e.Name || g.Kind != e.Kind {
			t.Fatalf("entry %d metadata mismatch", i)
		}
		if len(g.Tensor.Shape) != len(e.Tensor.Shape) {
			t.Fatalf("entry %d rank mismatch", i)
		}
		for j := range e.Tensor.Shape {
			if g.Tensor.Shape[j] != e.Tensor.Shape[j] {
				t.Fatalf("entry %d shape mismatch", i)
			}
		}
		for j := range e.Tensor.Data {
			if g.Tensor.Data[j] != e.Tensor.Data[j] {
				t.Fatalf("entry %d data mismatch at %d", i, j)
			}
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, // bad magic
	}
	for i, c := range cases {
		if _, err := UnmarshalStateDict(c); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
	// Truncated valid prefix.
	full := makeDict().Marshal()
	if _, err := UnmarshalStateDict(full[:len(full)-3]); err == nil {
		t.Fatal("truncated buffer should fail")
	}
}

func TestFloat32BytesRoundTrip(t *testing.T) {
	vals := []float32{0, float32(math.Copysign(0, -1)), 1.5, float32(math.Inf(1)), float32(math.NaN()), -3.25e-12}
	sd := NewStateDict()
	sd.Add("v", KindWeight, FromData(vals, len(vals)))
	back, err := UnmarshalStateDict(sd.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got := back.Get("v").Data
	for i := range vals {
		if math.Float32bits(got[i]) != math.Float32bits(vals[i]) {
			t.Fatalf("bit-exactness violated at %d", i)
		}
	}
}

// Property: marshal/unmarshal is the identity for random dicts.
func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		sd := NewStateDict()
		entries := int(n%8) + 1
		for i := 0; i < entries; i++ {
			sz := rng.IntN(64) + 1
			data := make([]float32, sz)
			for j := range data {
				data[j] = float32(rng.NormFloat64())
			}
			sd.Add(string(rune('a'+i))+".weight", Kind(rng.IntN(4)), FromData(data, sz))
		}
		got, err := UnmarshalStateDict(sd.Marshal())
		if err != nil {
			return false
		}
		d, err := got.MaxAbsDiff(sd)
		return err == nil && d == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	sd := NewStateDict()
	data := make([]float32, 1<<18)
	for i := range data {
		data[i] = float32(i)
	}
	sd.Add("w", KindWeight, FromData(data, len(data)))
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sd.Marshal()
	}
}

func TestZeroIntoReusesCompatibleDict(t *testing.T) {
	sd := makeDict()
	fresh := sd.ZeroInto(nil)
	for _, e := range fresh.Entries() {
		for _, v := range e.Tensor.Data {
			if v != 0 {
				t.Fatalf("ZeroInto(nil): %s not zeroed", e.Name)
			}
		}
	}
	// Scribble on the accumulator, then rezero in place: same dict, same
	// backing arrays, all-zero contents.
	fresh.Get("conv1.weight").Fill(3)
	back := &fresh.Entries()[0].Tensor.Data[0]
	reused := sd.ZeroInto(fresh)
	if reused != fresh {
		t.Fatal("ZeroInto should reuse a compatible dst")
	}
	if &reused.Entries()[0].Tensor.Data[0] != back {
		t.Fatal("ZeroInto reallocated a compatible dst's storage")
	}
	for _, e := range reused.Entries() {
		for _, v := range e.Tensor.Data {
			if v != 0 {
				t.Fatalf("ZeroInto(dst): %s not rezeroed", e.Name)
			}
		}
	}
	// Incompatible dst (different entry set) must be replaced, not reused.
	other := NewStateDict()
	other.Add("different", KindWeight, New(3))
	if got := sd.ZeroInto(other); got == other {
		t.Fatal("ZeroInto reused an incompatible dst")
	}
}

func TestCloneIntoCopiesAndReuses(t *testing.T) {
	sd := makeDict()
	c1 := sd.CloneInto(nil)
	if d, err := sd.MaxAbsDiff(c1); err != nil || d != 0 {
		t.Fatalf("CloneInto(nil) diff=%v err=%v", d, err)
	}
	// Mutating the clone must not touch the source.
	c1.Get("conv1.weight").Fill(9)
	if sd.Get("conv1.weight").Data[0] == 9 {
		t.Fatal("CloneInto(nil) shares storage with source")
	}
	back := &c1.Entries()[0].Tensor.Data[0]
	c2 := sd.CloneInto(c1)
	if c2 != c1 || &c2.Entries()[0].Tensor.Data[0] != back {
		t.Fatal("CloneInto should reuse a compatible dst in place")
	}
	if d, err := sd.MaxAbsDiff(c2); err != nil || d != 0 {
		t.Fatalf("CloneInto(dst) diff=%v err=%v", d, err)
	}
}
