package agg

// Aggregator metrics: each Sharded owns its counters — updates folded, the
// fold/merge latency and the wait for the lock before it — and
// RegisterMetrics names them on a registry the program built. The merge
// histogram is also the fold stage of fedsz_stage_seconds: one timer, two
// names; the wait is the fold_wait stage.

import (
	"repro/internal/core"
	"repro/internal/telemetry"
)

type aggMetrics struct {
	updates   telemetry.Counter
	mergeHist *telemetry.Histogram
	waitHist  *telemetry.Histogram
}

// RegisterMetrics exports this aggregator's metrics on reg. Call it once per
// aggregator from wiring code; a registry holds one aggregator's series.
func (s *Sharded) RegisterMetrics(reg *telemetry.Registry) {
	reg.Register("fedsz_agg_updates_total",
		"Updates folded by the aggregator; a client's dropped duplicate is not counted.", &s.m.updates)
	reg.Register("fedsz_agg_merge_seconds",
		"Per-update commit time under the aggregator's lock: structural validation plus the fold.", s.m.mergeHist)
	core.RegisterStage(reg, "fold", "all", "decode", s.m.mergeHist)
	core.RegisterStage(reg, "fold_wait", "all", "decode", s.m.waitHist)
}
