// Package telemetry is the observability substrate for a deployed FedSZ
// pipeline: a dependency-free metrics registry that renders the Prometheus
// text exposition format, plus a lightweight JSONL trace-event layer for
// per-connection and per-round timelines.
//
// # Metrics
//
// Counter, Gauge and Histogram are plain values a component keeps in its own
// struct and updates whether or not anything exports them. A Registry only
// names them: wiring code calls each component's RegisterMetrics with a
// registry it built, which attaches the component's metrics as series of
// metric families — counters, gauges, gauge functions, and histograms with
// explicit buckets — split by constant labels. One series has one owner:
// registering a (name, labels) pair twice panics, so two servers in one
// process cannot silently add into the same series. So does a family
// re-registered with a different type or help string.
//
// The update paths are designed for hot loops: counters and histogram
// observations are single atomic operations (histograms pre-compute their
// bucket bounds at registration), gauges are a CAS on the float bits, and
// none of them allocate or format anything. All costs of rendering — name
// sorting, label escaping, float formatting — are paid at scrape time by
// WritePrometheus.
//
// # Traces
//
// A Tracer serializes timestamped events as JSON lines. Timestamps are
// monotonic-clock offsets from the tracer's creation, so spans measured
// across a wall-clock adjustment stay correct. A nil *Tracer is valid and
// drops everything, so instrumented code never nil-checks.
package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing value. The zero value is ready to
// use; it must not be copied after first use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n is a delta, never negative by construction of the type).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to use
// and reads 0; it must not be copied after first use.
type Gauge struct {
	bits atomic.Uint64
}

// Add adjusts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc and Dec adjust the gauge by ±1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into cumulative buckets with explicit
// upper bounds, tracking the total sum and count — the Prometheus
// histogram model. Observations are lock-free and allocation-free.
// Construct with NewHistogram.
type Histogram struct {
	// upper holds the sorted finite bucket bounds; counts has one extra
	// slot for the implicit +Inf bucket.
	upper   []float64
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram returns a histogram with the given finite bucket upper bounds
// in any order (+Inf is implicit and ignored when listed).
func NewHistogram(buckets []float64) *Histogram {
	b := make([]float64, 0, len(buckets))
	for _, v := range buckets {
		if !math.IsInf(v, +1) {
			b = append(b, v)
		}
	}
	sort.Float64s(b)
	for i := 1; i < len(b); i++ {
		if b[i] == b[i-1] {
			panic(fmt.Sprintf("telemetry: histogram has duplicate bucket %g", b[i]))
		}
	}
	if len(b) == 0 {
		panic("telemetry: histogram needs at least one finite bucket")
	}
	return &Histogram{upper: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists are short (≤ ~20) and the scan touches one
	// cache line or two — cheaper than branch-missing a binary search.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// snapshot returns the cumulative bucket counts (one per finite bound,
// plus +Inf last) and the sum, each read atomically. The buckets are not
// a consistent cut with respect to concurrent Observes — Prometheus
// scrapes tolerate that — but each value is itself coherent, and the
// renderer derives _count from the +Inf bucket so that invariant holds on
// every scrape.
func (h *Histogram) snapshot() (cum []uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, h.Sum()
}

// DurationBuckets spans 100 µs to ~100 s in half-decade steps — wide
// enough for a per-tensor decode and a whole throttled model upload to
// land in interior buckets.
var DurationBuckets = []float64{
	100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10, 25, 50, 100,
}

// ByteBuckets spans 1 KiB to 256 MiB in ×4 steps — update wire sizes from
// a toy profile to a pooled-retention-limit model.
var ByteBuckets = []float64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20,
}

// CompressionBuckets spans compression ratios of 1× to 128× in ×2 steps.
var CompressionBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// BoundBuckets spans absolute error bounds of 1e-8 to 1 in decade steps.
var BoundBuckets = []float64{1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// UtilizationBuckets spans the share of an error bound a blob's worst
// element used, finest near 1; the buckets past 1 count blobs that broke
// the bound.
var UtilizationBuckets = []float64{0.5, 0.9, 0.99, 0.999, 1, 1.001, 2}

// RatioBuckets splits [0, 1] into tenths for overlap-style ratios. The
// third and seventh bounds are float64(0.1) + i·float64(0.1) as first
// computed at run time, so the le labels scrapes have always carried
// ("0.30000000000000004", "0.7000000000000001") do not change.
var RatioBuckets = []float64{0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6, 0.7000000000000001, 0.8, 0.9, 1}

// metricType is a family's Prometheus TYPE.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one labeled instance within a family. Exactly one of the
// value fields is set, matching the family type (fn only in gauge
// families).
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	series []*series       // registration order (render preserves it)
	index  map[string]bool // label keys taken
}

// Registry names metrics and renders them as Prometheus text. The zero
// value is unusable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelKey serializes a label set into a map key. Labels are assumed
// pre-sorted by sortedLabels.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	n := 0
	for _, l := range labels {
		n += len(l.Key) + len(l.Value) + 2
	}
	b := make([]byte, 0, n)
	for _, l := range labels {
		b = append(b, l.Key...)
		b = append(b, 1)
		b = append(b, l.Value...)
		b = append(b, 2)
	}
	return string(b)
}

// validName checks the Prometheus metric/label-name grammar.
func validName(s string, label bool) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || (!label && r == ':')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// sortedLabels returns labels sorted by key, validated, copied.
func sortedLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	for i, l := range out {
		if !validName(l.Key, true) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l.Key))
		}
		if i > 0 && out[i-1].Key == l.Key {
			panic(fmt.Sprintf("telemetry: duplicate label name %q", l.Key))
		}
	}
	return out
}

// Register attaches metric — a *Counter, *Gauge or *Histogram its owner
// already holds and updates, or a func() float64 sampled at scrape time as a
// gauge (the fit for a value the owner keeps anyway: a configured bound, a
// pool's hit total) — as the series (name, labels), creating the family on
// its first series. Every mistake here is a wiring bug and panics at start-up
// rather than corrupting the exposition: an invalid name, a series registered
// twice, a family re-registered with another type or help string, a histogram
// whose buckets differ from its family's.
func (r *Registry) Register(name, help string, metric any, labels ...Label) {
	if !validName(name, false) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	s := &series{labels: sortedLabels(labels)}
	var typ metricType
	switch m := metric.(type) {
	case *Counter:
		s.c, typ = m, typeCounter
	case *Gauge:
		s.g, typ = m, typeGauge
	case func() float64:
		s.fn, typ = m, typeGauge
	case *Histogram:
		s.h, typ = m, typeHistogram
	default:
		panic(fmt.Sprintf("telemetry: metric %q registered with unsupported type %T", name, metric))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, index: map[string]bool{}}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	if f.help != help {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with different help", name))
	}
	if typ == typeHistogram && len(f.series) > 0 && !slices.Equal(f.series[0].h.upper, s.h.upper) {
		panic(fmt.Sprintf("telemetry: histogram %q registered with buckets differing from its family's", name))
	}
	key := labelKey(s.labels)
	if f.index[key] {
		panic(fmt.Sprintf("telemetry: series %s%v registered twice", name, s.labels))
	}
	f.index[key] = true
	f.series = append(f.series, s)
}
