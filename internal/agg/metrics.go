package agg

// Aggregator metrics on the process-wide telemetry registry: per-shard
// folded-section counters (the observable that the name hash is actually
// spreading load), fold/merge latency, and the configured shard count. Registration is lazy and get-or-create, matching the flserve
// metric families these sit beside on a /metrics scrape.

import (
	"strconv"
	"sync"

	"repro/internal/telemetry"
)

type aggMetrics struct {
	updates   *telemetry.Counter
	mergeHist *telemetry.Histogram
	shards    *telemetry.Gauge

	mu       sync.Mutex
	perShard []*telemetry.Counter
}

// sectionsRouted returns the routing counter for shard i, registering it
// on first use (shard counts vary per Sharded instance, so the label set
// grows on demand).
func (m *aggMetrics) sectionsRouted(i int) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.perShard) <= i {
		m.perShard = append(m.perShard, telemetry.Default().Counter(
			"fedsz_agg_sections_routed_total",
			"Tensor sections folded by aggregator shards, by shard index.",
			telemetry.L("shard", strconv.Itoa(len(m.perShard)))))
	}
	return m.perShard[i]
}

var metrics = sync.OnceValue(func() *aggMetrics {
	r := telemetry.Default()
	return &aggMetrics{
		updates: r.Counter("fedsz_agg_updates_total",
			"Updates folded by the aggregator."),
		mergeHist: r.Histogram("fedsz_agg_merge_seconds",
			"Per-update commit time: structural validation plus the sharded fold.",
			telemetry.DurationBuckets),
		shards: r.Gauge("fedsz_agg_shards",
			"Configured shard count of the most recently constructed sharded aggregator."),
	}
})
