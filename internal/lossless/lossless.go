// Package lossless implements the lossless codecs FedSZ evaluates for the
// metadata / non-weight partition of a model update (paper Table II):
//
//   - blosclz  — byte-shuffle filter + speed-tuned LZ77 (stand-in for the C
//     blosc-lz library): fastest, good ratio on shuffled float data.
//   - zstdlike — LZ77 with deeper matching + Huffman-coded literals
//     (stand-in for Zstandard): mid speed, mid ratio.
//   - xzlike   — lazy-match LZ77 with exhaustive chains + Huffman-coded
//     literal and control streams (stand-in for XZ/LZMA): slowest, best
//     ratio.
//   - gzip, zlib — thin wrappers over the Go standard library DEFLATE
//     implementations, matching the Python libraries the paper used.
//
// All codecs implement the Codec interface and are self-framing: Decompress
// needs only the bytes Compress produced.
package lossless

import (
	"errors"
	"fmt"
	"sort"
)

// ErrCorrupt is returned when a compressed buffer fails integrity checks.
var ErrCorrupt = errors.New("lossless: corrupt compressed data")

// Codec is a self-framing lossless byte compressor.
//
// Implementations must be safe for concurrent use and must return freshly
// allocated buffers (never aliases of the input or of retained state):
// ownership transfers to the caller, which may recycle them through the
// sched buffer pools.
type Codec interface {
	// Name returns the codec's table name (e.g. "blosclz").
	Name() string
	// Compress returns a self-describing compressed representation of src.
	Compress(src []byte) ([]byte, error)
	// Decompress reverses Compress bit-exactly.
	Decompress(src []byte) ([]byte, error)
}

// table holds one value of each codec under its name. Every codec is safe
// for concurrent use, so the one value serves every caller.
var table = map[string]Codec{
	"blosclz":  NewBloscLZ(),
	"zstdlike": NewZstdLike(),
	"xzlike":   NewXZLike(),
	"gzip":     NewGzip(),
	"zlib":     NewZlib(),
}

// Get returns the codec named name.
func Get(name string) (Codec, error) {
	c, ok := table[name]
	if !ok {
		return nil, fmt.Errorf("lossless: unknown codec %q", name)
	}
	return c, nil
}

// Names returns the sorted table names.
func Names() []string {
	out := make([]string, 0, len(table))
	for n := range table {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
