package compressors_test

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/compressors"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
)

func TestRegistryNames(t *testing.T) {
	names := compressors.Names()
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
				out, _, err := comp.DecompressFinite(nil, stream)
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
