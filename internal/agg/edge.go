package agg

import (
	"context"
	"fmt"
	"net"

	"repro/internal/core"
	"repro/internal/flserve"
	"repro/internal/sched"
)

// EdgeConfig tunes an Edge aggregator.
type EdgeConfig struct {
	// Upstream is the root (or next-tier) server's TCP address. Required.
	Upstream string
	// ClientID identifies this edge on the upstream hop.
	ClientID uint32
	// Shards is the local fold's shard count (0 selects 1).
	Shards int
	// DedupByClient guards the local population's at-least-once retries.
	DedupByClient bool
	// Server configures the local ingest listener. Ingestor is owned by
	// the Edge and must be nil; a Handler observes each folded update.
	Server flserve.Config
	// Options encode the fused update for the upstream hop. The edge mean
	// is lossy-compressed again here, so the edge→root tolerance is one
	// extra error bound on top of the client→edge one; tighten the bound
	// (e.g. ebcl.Rel(1e-4)) when the tree is deep.
	Options core.Options
	// Client is the upstream uploader template (retry policy, link
	// shaping); Addr is overridden with Upstream.
	Client flserve.Client
}

// Edge is one interior node of an edge→root aggregation tree: a local
// flserve.Server folds its population through a Sharded accumulator, and
// Flush forwards ONE fused update upstream, weighted by the folded
// population weight, over the FLS3 weighted protocol. Legacy clients
// upload to an Edge exactly as they would to a flat server — the
// hierarchy is invisible below it.
type Edge struct {
	cfg  EdgeConfig
	agg  *Sharded
	srv  *flserve.Server
	pool *sched.Pool
}

// ListenEdge starts an edge aggregator listening on addr.
func ListenEdge(addr string, cfg EdgeConfig) (*Edge, error) {
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("agg: EdgeConfig.Upstream is required")
	}
	if cfg.Server.Ingestor != nil {
		return nil, fmt.Errorf("agg: EdgeConfig.Server.Ingestor is owned by the Edge")
	}
	pool := sched.NewPool(cfg.Server.Parallel)
	sh := New(Config{Shards: cfg.Shards, Pool: pool, DedupByClient: cfg.DedupByClient})
	scfg := cfg.Server
	scfg.Ingestor = sh
	srv, err := flserve.Listen(addr, scfg)
	if err != nil {
		return nil, err
	}
	return &Edge{cfg: cfg, agg: sh, srv: srv, pool: pool}, nil
}

// Addr returns the local listening address.
func (e *Edge) Addr() net.Addr { return e.srv.Addr() }

// Agg exposes the local accumulator (weight sum, mean and update count).
func (e *Edge) Agg() *Sharded { return e.agg }

// Server exposes the local ingest server (stats, snapshot).
func (e *Edge) Server() *flserve.Server { return e.srv }

// Flush forwards the local fold upstream as one fused, weighted update
// and resets the accumulator for the next round. It returns the weight
// forwarded (the represented population size); 0 with a nil error means
// there was nothing to flush. On error the accumulator is kept so a
// later Flush can retry.
func (e *Edge) Flush(ctx context.Context) (float64, error) {
	mean, n := e.agg.Mean()
	if n == 0 {
		return 0, nil
	}
	weight := e.agg.WeightSum()
	stream, _, err := core.CompressWith(ctx, e.pool, mean, e.cfg.Options)
	core.Release(mean)
	if err != nil {
		return 0, fmt.Errorf("agg: edge flush encode: %w", err)
	}
	client := e.cfg.Client
	client.Addr = e.cfg.Upstream
	if err := client.UploadWeighted(ctx, e.cfg.ClientID, weight, stream); err != nil {
		return 0, fmt.Errorf("agg: edge flush upload: %w", err)
	}
	e.agg.Reset()
	return weight, nil
}

// Close stops the local listener and waits for in-flight connections. It
// does not flush; call Flush first when the round is complete.
func (e *Edge) Close() error { return e.srv.Close() }
