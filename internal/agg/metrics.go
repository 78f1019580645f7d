package agg

// Aggregator metrics: each Sharded owns its counters — updates folded,
// per-shard folded-section counts (the observable that the name hash is
// actually spreading load) and the fold/merge latency — and RegisterMetrics
// names them, beside the configured shard count, on a registry the program
// built.

import (
	"strconv"

	"repro/internal/telemetry"
)

type aggMetrics struct {
	updates   telemetry.Counter
	mergeHist *telemetry.Histogram
	// perShard[i] counts the tensor sections shard i folded; sized at
	// New, so commit indexes it without a lock of its own.
	perShard []telemetry.Counter
}

// RegisterMetrics exports this aggregator's metrics on reg. Call it once per
// aggregator from wiring code; a registry holds one aggregator's series.
func (s *Sharded) RegisterMetrics(reg *telemetry.Registry) {
	reg.Register("fedsz_agg_updates_total",
		"Updates folded by the aggregator.", &s.m.updates)
	reg.Register("fedsz_agg_merge_seconds",
		"Per-update commit time: structural validation plus the sharded fold.", s.m.mergeHist)
	reg.Register("fedsz_agg_shards",
		"Configured shard count of the sharded aggregator.",
		func() float64 { return float64(s.cfg.Shards) })
	for i := range s.m.perShard {
		reg.Register("fedsz_agg_sections_routed_total",
			"Tensor sections folded by aggregator shards, by shard index.",
			&s.m.perShard[i], telemetry.L("shard", strconv.Itoa(i)))
	}
}
