// Package telemetry is the observability substrate for a deployed FedSZ
// pipeline: a dependency-free metrics registry that renders the Prometheus
// text exposition format, plus a lightweight JSONL trace-event layer for
// per-connection and per-round timelines.
//
// # Metrics
//
// A Registry holds metric families — counters, gauges, gauge functions,
// and histograms with explicit buckets — each optionally split into series
// by constant labels. Registration is get-or-create: asking for a name and
// label set that already exists returns the existing metric, so package-
// level instrumentation can be initialized lazily from several call sites
// (and several servers in one process can share one family) without
// duplicate-registration panics. Asking for an existing name with a
// different type or help string panics: that is a programming error.
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

// Counter is a monotonically increasing value. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n is a delta, never negative by construction of the type).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

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
type Histogram struct {
	// upper holds the sorted finite bucket bounds; counts has one extra
	// slot for the implicit +Inf bucket.
	upper   []float64
	counts  []atomic.Uint64
	sumBits atomic.Uint64
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

// LinearBuckets returns n bucket bounds starting at start and stepping by
// width — the shape for bounded ratios.
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 {
		panic("telemetry: LinearBuckets needs n >= 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
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

// RatioBuckets splits [0, 1] into tenths for overlap-style ratios.
var RatioBuckets = LinearBuckets(0.1, 0.1, 10)

// metricType is a family's Prometheus TYPE.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one labeled instance within a family. Exactly one of the
// value fields is set, matching the family type (fn only for gauge
// families registered through GaugeFunc).
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
	series []*series          // registration order (render preserves it)
	index  map[string]*series // label-key → series
	// buckets pins the bounds every histogram series in the family shares,
	// so a second registration with different buckets is caught.
	buckets []float64
}

// Registry holds metric families and renders them as Prometheus text.
// The zero value is unusable; call NewRegistry (or use Default).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that the pipeline's built-in
// instrumentation (flserve, core stage timers, sched pool gauges)
// registers into — the one a fedsz-serve -metrics-addr listener exposes.
func Default() *Registry { return defaultRegistry }

// labelKey serializes a label set into a map key. Labels are assumed
// pre-sorted by getFamily.
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

// getFamily returns the family for (name, typ, help), creating it on first
// use and panicking on a type or help mismatch with a previous
// registration — silent divergence would corrupt the exposition.
func (r *Registry) getFamily(name, help string, typ metricType) *family {
	if !validName(name, false) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, index: map[string]*series{}}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	if f.help != help {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with different help", name))
	}
	return f
}

// Counter returns the counter for (name, labels), creating the family and
// series on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	ls := sortedLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, typeCounter)
	key := labelKey(ls)
	if s, ok := f.index[key]; ok {
		return s.c
	}
	s := &series{labels: ls, c: &Counter{}}
	f.index[key] = s
	f.series = append(f.series, s)
	return s.c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	ls := sortedLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, typeGauge)
	key := labelKey(ls)
	if s, ok := f.index[key]; ok {
		if s.g == nil {
			panic(fmt.Sprintf("telemetry: gauge %q series registered as gauge func", name))
		}
		return s.g
	}
	s := &series{labels: ls, g: &Gauge{}}
	f.index[key] = s
	f.series = append(f.series, s)
	return s.g
}

// GaugeFunc registers a gauge whose value is sampled by calling fn at
// scrape time — the fit for exporting counters a subsystem already keeps
// (pool hit/miss totals, queue depths) without shadow bookkeeping. A
// series that already exists keeps its original fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	ls := sortedLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, typeGauge)
	key := labelKey(ls)
	if _, ok := f.index[key]; ok {
		return
	}
	s := &series{labels: ls, fn: fn}
	f.index[key] = s
	f.series = append(f.series, s)
}

// Histogram returns the histogram for (name, labels) with the given finite
// bucket upper bounds (+Inf is implicit), creating it on first use. Every
// series of one family must share the same buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	ls := sortedLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, typeHistogram)
	if f.buckets == nil {
		b := make([]float64, 0, len(buckets))
		for _, v := range buckets {
			if !math.IsInf(v, +1) {
				b = append(b, v)
			}
		}
		sort.Float64s(b)
		for i := 1; i < len(b); i++ {
			if b[i] == b[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %q has duplicate bucket %g", name, b[i]))
			}
		}
		if len(b) == 0 {
			panic(fmt.Sprintf("telemetry: histogram %q needs at least one finite bucket", name))
		}
		f.buckets = b
	} else if !sameBuckets(f.buckets, buckets) {
		panic(fmt.Sprintf("telemetry: histogram %q re-registered with different buckets", name))
	}
	key := labelKey(ls)
	if s, ok := f.index[key]; ok {
		return s.h
	}
	h := &Histogram{upper: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	s := &series{labels: ls, h: h}
	f.index[key] = s
	f.series = append(f.series, s)
	return h
}

// sameBuckets compares a family's canonical bounds with a newly supplied
// list (order-insensitive, +Inf ignored).
func sameBuckets(canon, supplied []float64) bool {
	b := make([]float64, 0, len(supplied))
	for _, v := range supplied {
		if !math.IsInf(v, +1) {
			b = append(b, v)
		}
	}
	sort.Float64s(b)
	if len(b) != len(canon) {
		return false
	}
	for i := range b {
		if b[i] != canon[i] {
			return false
		}
	}
	return true
}
