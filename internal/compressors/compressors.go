// Package compressors is the registry tying the four EBLC implementations
// together under their paper names, so pipelines and experiments can select
// a compressor by string the way FedSZ's config does.
package compressors

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ebcl"
	"repro/internal/sz2"
	"repro/internal/sz3"
	"repro/internal/szx"
	"repro/internal/zfp"
)

var (
	mu       sync.RWMutex
	registry = map[string]func() ebcl.Compressor{
		"sz2": func() ebcl.Compressor { return sz2.NewCompressor() },
		"sz3": func() ebcl.Compressor { return sz3.NewCompressor() },
		"szx": func() ebcl.Compressor { return szx.NewCompressor() },
		"zfp": func() ebcl.Compressor { return zfp.NewCompressor() },
	}
)

// Register adds a user-supplied compressor factory under name, making
// custom EBLCs usable in FedSZ streams (Decompress resolves compressors by
// the name the stream carries). Registering a built-in name is an error;
// re-registering a custom name replaces it. Names are limited to 255 bytes
// by the stream format.
func Register(name string, factory func() ebcl.Compressor) error {
	if name == "" || len(name) > 255 {
		return fmt.Errorf("compressors: invalid name %q", name)
	}
	if factory == nil {
		return fmt.Errorf("compressors: nil factory for %q", name)
	}
	switch name {
	case "sz2", "sz3", "szx", "zfp":
		return fmt.Errorf("compressors: cannot replace built-in %q", name)
	}
	mu.Lock()
	defer mu.Unlock()
	registry[name] = factory
	return nil
}

// Get returns a fresh compressor instance by name.
func Get(name string) (ebcl.Compressor, error) {
	mu.RLock()
	f, ok := registry[name]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("compressors: unknown compressor %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names returns the sorted registry names.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
