package compressors_test

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/compressors"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
)

// builtinNames is read before any test registers a codec of its own.
var builtinNames = compressors.Names()

func TestRegistryNames(t *testing.T) {
	names := builtinNames
	want := []string{"sz2", "sz3", "szx", "zfp"}
	if len(names) != len(want) {
		t.Fatalf("names %v want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names %v want %v", names, want)
		}
	}
}

// statefulCodec is a registered codec with per-instance state — what Get's
// fresh-instance guarantee protects. The four built-ins are stateless, and
// pointers to zero-size values may compare equal, so they cannot show it.
type statefulCodec struct {
	ebcl.Compressor
	calls int
}

func TestGetReturnsFreshInstances(t *testing.T) {
	err := compressors.Register("stateful", func() ebcl.Compressor {
		inner, err := compressors.Get("sz2")
		if err != nil {
			t.Error(err)
		}
		return &statefulCodec{Compressor: inner}
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := compressors.Get("stateful")
	if err != nil {
		t.Fatal(err)
	}
	b, err := compressors.Get("stateful")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("Get must return fresh instances")
	}
	if a.Name() != "sz2" {
		t.Fatalf("name %q", a.Name())
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := compressors.Get("brotli"); err == nil {
		t.Fatal("want error for unknown name")
	}
}

func TestConcurrentCompressionSafe(t *testing.T) {
	// core.Compress runs one compressor instance across goroutines; every
	// EBLC must therefore be safe for concurrent Compress/Decompress.
	rng := rand.New(rand.NewPCG(1, 2))
	data := eblctest.WeightLike(rng, 1<<15)
	for _, name := range compressors.Names() {
		comp, err := compressors.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errCh := make(chan error, 16)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				stream, err := comp.CompressAppend(nil, data, ebcl.Rel(1e-2))
				if err != nil {
					errCh <- err
					return
				}
				out, err := comp.DecompressInto(nil, stream)
				if err != nil {
					errCh <- err
					return
				}
				if len(out) != len(data) {
					errCh <- ebcl.ErrCorrupt
				}
			}()
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatalf("%s: concurrent use failed: %v", name, err)
		}
	}
}
