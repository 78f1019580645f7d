package sched

// Pool observability: the buffer pools keep their own lock-free counters
// (see bufferPool.counters, recycledBytes); telemetry only needs to sample
// them at scrape time. Registering sampling functions keeps the pools
// themselves free of any telemetry dependency on the Get/Put hot path.

import "repro/internal/telemetry"

// RegisterMetrics exports the package-wide pool counters on reg as gauges
// sampled at scrape time. Call it once per registry from wiring code; a
// second call on the same registry panics, as any series registered twice
// does.
func RegisterMetrics(reg *telemetry.Registry) {
	reg.Register("fedsz_pool_hits_total",
		"Buffer pool Get calls served from a pooled buffer, by pool.",
		func() float64 { h, _ := BytePoolCounters(); return float64(h) },
		telemetry.L("pool", "bytes"))
	reg.Register("fedsz_pool_misses_total",
		"Buffer pool Get calls that had to allocate, by pool.",
		func() float64 { _, m := BytePoolCounters(); return float64(m) },
		telemetry.L("pool", "bytes"))
	reg.Register("fedsz_pool_hits_total",
		"Buffer pool Get calls served from a pooled buffer, by pool.",
		func() float64 { h, _ := FloatPoolCounters(); return float64(h) },
		telemetry.L("pool", "floats"))
	reg.Register("fedsz_pool_misses_total",
		"Buffer pool Get calls that had to allocate, by pool.",
		func() float64 { _, m := FloatPoolCounters(); return float64(m) },
		telemetry.L("pool", "floats"))
	reg.Register("fedsz_pool_recycled_bytes_total",
		"Total buffer bytes returned to the pools for reuse.",
		func() float64 { return float64(RecycledBytes()) })
}
