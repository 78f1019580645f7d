// Package compressors is the fixed table of the paper's four EBLCs under
// their paper names, so pipelines and experiments can select a compressor
// by string the way FedSZ's config does, and a receiver can find the codec a
// stream names. Adding an EBLC is a package implementing ebcl.Compressor and
// one row here.
package compressors

import (
	"fmt"
	"slices"

	"repro/internal/ebcl"
	"repro/internal/sz2"
	"repro/internal/sz3"
	"repro/internal/szx"
	"repro/internal/zfp"
)

// table holds one value of each codec. Every codec is stateless and safe for
// concurrent use, so the one value serves every caller.
var table = map[string]ebcl.Compressor{
	"sz2": sz2.NewCompressor(),
	"sz3": sz3.NewCompressor(),
	"szx": szx.NewCompressor(),
	"zfp": zfp.NewCompressor(),
}

// Get returns the compressor named name.
func Get(name string) (ebcl.Compressor, error) {
	c, ok := table[name]
	if !ok {
		return nil, fmt.Errorf("compressors: unknown compressor %q (have %v)", name, Names())
	}
	return c, nil
}

// Names returns the sorted table names.
func Names() []string {
	out := make([]string, 0, len(table))
	for n := range table {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}
