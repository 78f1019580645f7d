package main

// The metric tables. BENCHMARK.json declares the same names; smoke_test.go
// fails when the two drift apart.

import (
	"math"
	"sort"
)

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees, reported for every workload
// by an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"round_ms", "ms", "lower"},
	{"ack_ms", "ms", "lower"},
	{"updates_per_s", "1/s", "higher"},
	{"wire_bytes_per_update", "bytes", "lower"},
	{"cpu_ms_per_update", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is reported by a traced run: the live round's spans plus the
// staged replay of the same inputs through each layer's public entry point.
var perLayer = []metricDef{
	{"sz2.compress_mbps", "MB/s", "higher"},
	{"sz2.decompress_mbps", "MB/s", "higher"},
	{"sz2.ratio", "x", "higher"},
	{"sz2.max_err_over_bound", "x", "lower"},
	{"sz2.compress_allocs_per_op", "count", "lower"},
	{"sz2.decompress_allocs_per_op", "count", "lower"},

	{"huffman.encode_mbps", "MB/s", "higher"},
	{"huffman.decode_mbps", "MB/s", "higher"},
	{"huffman.bits_per_symbol", "bits", "lower"},

	{"lossless.compress_mbps", "MB/s", "higher"},
	{"lossless.decompress_mbps", "MB/s", "higher"},
	{"lossless.ratio", "x", "higher"},

	{"core.compress_ms", "ms", "lower"},
	{"core.encode_work_ms", "ms", "lower"},
	{"core.encode_self_ms", "ms", "lower"},
	{"core.parallel_eff", "x", "higher"},
	{"core.decompress_ms", "ms", "lower"},
	{"core.decode_self_ms", "ms", "lower"},
	{"core.stream_ratio", "x", "higher"},
	{"core.chunked_tensors", "count", "higher"},
	{"core.compress_allocs_per_op", "count", "lower"},
	{"core.decompress_allocs_per_op", "count", "lower"},

	{"wire.frame_mbps", "MB/s", "higher"},
	{"wire.deframe_mbps", "MB/s", "higher"},
	{"wire.overhead_bytes", "bytes", "lower"},
	{"wire.frames_per_update", "count", "lower"},

	{"netsim.pacing_err_frac", "x", "lower"},
	{"netsim.eqn1_speedup", "x", "higher"},

	{"agg.ingest_ms", "ms", "lower"},
	{"agg.ingest_mbps", "MB/s", "higher"},
	{"agg.fold_self_ms", "ms", "lower"},
	{"agg.allocs_per_update", "count", "lower"},
	{"agg.alloc_kb_per_update", "KB", "lower"},
	{"agg.mean_ms", "ms", "lower"},
	{"agg.reset_ms", "ms", "lower"},

	{"flserve.dial_us", "us", "lower"},
	{"flserve.upload_ms", "ms", "lower"},
	{"flserve.conn_self_ms", "ms", "lower"},
	{"flserve.read_wait_frac", "x", "lower"},
	{"flserve.decode_work_frac", "x", "lower"},
	{"flserve.overlap_ratio", "x", "higher"},
	{"flserve.encode_overlap_ratio", "x", "higher"},
	{"flserve.write_wait_frac", "x", "lower"},
	{"flserve.ack_ms_p50", "ms", "lower"},
	{"flserve.ack_ms_p95", "ms", "lower"},
	{"flserve.ack_ms_p99", "ms", "lower"},
	{"flserve.ack_ms_max", "ms", "lower"},
	{"flserve.run_updates_per_s", "1/s", "higher"},
	{"flserve.rejected", "count", "lower"},
	{"flserve.shed", "count", "lower"},

	{"sched.byte_pool_hit_ratio", "x", "higher"},
	{"sched.float_pool_hit_ratio", "x", "higher"},
	{"sched.recycled_kb_per_update", "KB", "higher"},
	{"sched.pool_busy_after", "count", "lower"},

	{"delta.encode_cost_x", "x", "lower"},
	{"delta.residual_win_frac", "x", "higher"},
	{"delta.bytes_reduction", "x", "higher"},
	{"delta.ref_set_ms", "ms", "lower"},

	{"proc.allocs_per_update", "count", "lower"},
	{"proc.alloc_kb_per_update", "KB", "lower"},
	{"proc.gc_count", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},

	{"trace.overhead_frac", "x", "lower"},
	{"trace.stage_sum_over_ack", "x", "lower"},
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs;
// 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median averages the two middle values of an even-sized sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
