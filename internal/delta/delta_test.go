package delta

import (
	"testing"

	"repro/internal/tensor"
)

func dict(vals ...float32) *tensor.StateDict {
	sd := tensor.NewStateDict()
	sd.Add("w", tensor.KindWeight, tensor.FromData(vals, len(vals)))
	return sd
}

func TestRefEpochAndProvider(t *testing.T) {
	var r Ref
	if _, _, ok := r.Get(); ok {
		t.Fatal("empty Ref reports a reference")
	}
	if got := r.Provider()(0); got != nil {
		t.Fatal("empty Ref provider returned a dict")
	}

	src := dict(1, 2, 3)
	if e := r.Set(src); e != 1 {
		t.Fatalf("first Set epoch %d, want 1", e)
	}
	// The holder keeps a copy: mutating the source must not leak through.
	src.Get("w").Data[0] = 99
	sd, epoch, ok := r.Get()
	if !ok || epoch != 1 {
		t.Fatalf("Get = (%v, %d), want (ok, 1)", ok, epoch)
	}
	if sd.Get("w").Data[0] != 1 {
		t.Fatal("Ref shares storage with the caller's dict")
	}

	p := r.Provider()
	if p(1) == nil {
		t.Fatal("provider refused the current epoch")
	}
	if p(0) != nil || p(2) != nil {
		t.Fatal("provider served a stale epoch")
	}
	if e := r.Set(dict(4, 5, 6)); e != 2 {
		t.Fatalf("second Set epoch %d, want 2", e)
	}
	if p(1) != nil {
		t.Fatal("provider served epoch 1 after the reference advanced")
	}
	if got := p(2); got == nil || got.Get("w").Data[0] != 4 {
		t.Fatal("provider did not serve the advanced reference")
	}
}
