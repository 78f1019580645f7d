package fedsz

// Codec is the public API: configuration is validated once at
// construction (fedsz.New) instead of on every call, the codec owns its
// parallelism budget, and every method takes a context so callers get real
// deadlines and cancellation.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/compressors"
	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/lossless"
	"repro/internal/sched"
)

// Codec is a reusable, configured FedSZ session. It is safe for
// concurrent use: all methods may be called from any number of
// goroutines, drawing per-tensor parallelism from the codec's one pool.
//
// Build one with New and reuse it — construction validates the
// configuration (unknown compressor names, bad bounds) so the pipeline
// never discovers a misconfiguration mid-stream, and a long-lived codec
// is the object per-session state (parallelism budget, future retry
// policy) hangs on.
type Codec struct {
	opts core.Options
	pool *sched.Pool
}

// codecConfig accumulates functional options before validation.
type codecConfig struct {
	lossyName    string
	params       Params
	hasParams    bool
	losslessName string
	parallelism  int
	hasParallel  bool
	threshold    int
	noPartition  bool
}

// Option configures a Codec under construction; see New.
type Option func(*codecConfig) error

// WithCompressor selects the error-bounded lossy compressor by name: "sz2",
// "sz3", "szx" or "zfp". The name resolves at New, so a typo fails
// construction, not a compress call mid-pipeline. A stream carries only this
// name, and every receiver finds the same codec under it.
func WithCompressor(name string) Option {
	return func(c *codecConfig) error {
		c.lossyName = name
		return nil
	}
}

// WithRelBound sets a value-range-relative error bound (the SZ convention;
// the paper recommends 1e-2).
func WithRelBound(eb float64) Option {
	return func(c *codecConfig) error {
		if eb <= 0 {
			return fmt.Errorf("fedsz: relative error bound must be positive, got %g", eb)
		}
		c.params, c.hasParams = ebcl.Rel(eb), true
		return nil
	}
}

// WithAbsBound sets an absolute error bound.
func WithAbsBound(eb float64) Option {
	return func(c *codecConfig) error {
		if eb <= 0 {
			return fmt.Errorf("fedsz: absolute error bound must be positive, got %g", eb)
		}
		c.params, c.hasParams = ebcl.Abs(eb), true
		return nil
	}
}

// WithParams sets the error-control parameters directly (e.g. the ZFP
// fixed-precision mode).
func WithParams(p Params) Option {
	return func(c *codecConfig) error {
		c.params, c.hasParams = p, true
		return nil
	}
}

// WithLossless selects the metadata-partition codec by name
// ("blosclz", "zstdlike", "xzlike", "gzip", "zlib"), resolved at New.
func WithLossless(name string) Option {
	return func(c *codecConfig) error {
		c.losslessName = name
		return nil
	}
}

// WithParallelism gives the codec its own worker pool with the given
// budget (0 selects GOMAXPROCS): every Compress/Decompress on this codec
// — and the per-tensor fan-out inside each call — draws from that one
// budget, so a server codec never oversubscribes the machine however many
// connections feed it. Without this option the codec shares the
// process-wide default pool.
func WithParallelism(n int) Option {
	return func(c *codecConfig) error {
		if n < 0 {
			return fmt.Errorf("fedsz: parallelism must be >= 0, got %d", n)
		}
		c.parallelism, c.hasParallel = n, true
		return nil
	}
}

// WithThreshold sets Algorithm 1's size gate: weight tensors with more
// than n elements take the lossy path (0 keeps the default 1024; negative
// disables the gate).
func WithThreshold(n int) Option {
	return func(c *codecConfig) error {
		c.threshold = n
		return nil
	}
}

// WithoutPartitioning routes every tensor through the lossy path — the
// ablation the paper warns causes "extreme degradation" (§V-C); useful
// for reproducing that experiment.
func WithoutPartitioning() Option {
	return func(c *codecConfig) error {
		c.noPartition = true
		return nil
	}
}

// New builds a Codec, validating the whole configuration up front: an
// unknown compressor or lossless name, a non-positive bound, or a bad
// parallelism fails here with a descriptive error instead of surfacing
// mid-pipeline. The zero-option call New() is the paper's recommended
// configuration (SZ2, REL 1e-2, blosc-lz, threshold 1024) on the shared
// process-wide pool.
func New(options ...Option) (*Codec, error) {
	var cfg codecConfig
	for _, opt := range options {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	c := &Codec{}
	if cfg.lossyName != "" {
		comp, err := compressors.Get(cfg.lossyName)
		if err != nil {
			return nil, fmt.Errorf("fedsz: unknown compressor %q (available: %s)",
				cfg.lossyName, strings.Join(compressors.Names(), ", "))
		}
		c.opts.Lossy = comp
	}
	if cfg.losslessName != "" {
		codec, err := lossless.Get(cfg.losslessName)
		if err != nil {
			return nil, fmt.Errorf("fedsz: unknown lossless codec %q (available: %s)",
				cfg.losslessName, strings.Join(lossless.Names(), ", "))
		}
		c.opts.Lossless = codec
	}
	if cfg.hasParams {
		if _, err := ebcl.ResolveAbs([]float32{0, 1}, cfg.params); err != nil {
			return nil, fmt.Errorf("fedsz: invalid error-control parameters: %w", err)
		}
		c.opts.LossyParams = cfg.params
	}
	c.opts.Threshold = cfg.threshold
	c.opts.DisablePartitioning = cfg.noPartition
	if cfg.hasParallel {
		c.pool = sched.NewPool(cfg.parallelism)
	} else {
		c.pool = sched.Default()
	}
	return c, nil
}

// Options returns the resolved pipeline options the codec was built with
// (a copy; mutating it does not affect the codec).
func (c *Codec) Options() Options { return c.opts }

// Compress runs the FedSZ pipeline over a state dict on the codec's pool.
func (c *Codec) Compress(ctx context.Context, sd *StateDict) ([]byte, *Stats, error) {
	return core.CompressWith(ctx, c.pool, sd, c.opts)
}

// CompressDelta runs the pipeline with ref as the cross-round baseline:
// the emitted stream uses the v3 delta format, encoding each lossy tensor
// as the residual sd − ref when that wins and falling back to absolute
// per tensor otherwise. epoch tags the stream so DecompressDelta can verify
// both ends agree on the baseline. The error contract is unchanged: a REL
// bound is resolved against each original tensor's value range before the
// residual is encoded, so reconstruction error on the original data stays
// within the configured bound. internal/delta.Codec layers reference
// retention and epoch management on top of this call.
func (c *Codec) CompressDelta(ctx context.Context, sd, ref *StateDict, epoch uint32) ([]byte, *Stats, error) {
	opts := c.opts
	opts.Reference, opts.RefEpoch = ref, epoch
	return core.CompressWith(ctx, c.pool, sd, opts)
}

// DecompressDelta reverses CompressDelta against the same reference and
// epoch. Absolute (v1/v2) streams decode exactly as Decompress would; a v3
// stream whose residual sections cannot be reconstructed here — nil ref,
// epoch mismatch, or a reference missing a tensor — fails with
// core.ErrReference (distinct from ErrCorrupt, so callers can renegotiate
// an absolute exchange).
func (c *Codec) DecompressDelta(ctx context.Context, stream []byte, ref *StateDict, epoch uint32) (*StateDict, *DecompressStats, error) {
	return core.DecompressWith(ctx, c.pool, stream, core.DecodeOptions{Reference: ref, RefEpoch: epoch})
}

// Decompress reverses Compress on the codec's pool. The stream is
// self-describing: the compressors it was encoded with are selected by
// the names it carries, independent of this codec's configuration.
func (c *Codec) Decompress(ctx context.Context, stream []byte) (*StateDict, *DecompressStats, error) {
	return core.DecompressWith(ctx, c.pool, stream, core.DecodeOptions{})
}
