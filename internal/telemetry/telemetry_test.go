package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/promtext"
)

// counter, gauge and histogram make a metric and register it on r: the two
// steps a component and its wiring code take, in one call for the tests.
func counter(r *Registry, name, help string, labels ...Label) *Counter {
	c := new(Counter)
	r.Register(name, help, c, labels...)
	return c
}

func gauge(r *Registry, name, help string, labels ...Label) *Gauge {
	g := new(Gauge)
	r.Register(name, help, g, labels...)
	return g
}

func histogram(r *Registry, name, help string, buckets []float64, labels ...Label) *Histogram {
	h := NewHistogram(buckets)
	r.Register(name, help, h, labels...)
	return h
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestCounterGaugeBasics uses the zero values, registered nowhere.
func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Add(2.5)
	g.Add(-1)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

// TestRegisterTwicePanics: a series has one owner. Two components (two
// servers in one process) registering the same (name, labels) is a start-up
// panic, never a shared, double-counted series.
func TestRegisterTwicePanics(t *testing.T) {
	r := NewRegistry()
	counter(r, "dup_total", "help", L("x", "1"))
	counter(r, "dup_total", "help", L("x", "2")) // another label value: another series
	mustPanic(t, "same name+labels", func() { counter(r, "dup_total", "help", L("x", "1")) })
	mustPanic(t, "the same counter again", func() {
		c := counter(r, "again_total", "help")
		r.Register("again_total", "help", c)
	})
	r.Register("fn", "help", func() float64 { return 1 })
	mustPanic(t, "same gauge func series", func() { r.Register("fn", "help", func() float64 { return 2 }) })
	// Label order must not matter.
	histogram(r, "h", "help", []float64{1, 2}, L("a", "1"), L("b", "2"))
	mustPanic(t, "same labels in another order", func() {
		histogram(r, "h", "help", []float64{1, 2}, L("b", "2"), L("a", "1"))
	})
	mustPanic(t, "an unsupported metric type", func() { r.Register("v", "help", 3.0) })
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	counter(r, "m", "help", L("x", "1"))
	mustPanic(t, "re-registering a counter family as a gauge", func() { gauge(r, "m", "help", L("x", "2")) })
	mustPanic(t, "re-registering a family with other help", func() { counter(r, "m", "other help", L("x", "2")) })
	counter(r, "m", "help", L("x", "2")) // neither failed attempt took the series
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "0abc", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q did not panic", bad)
				}
			}()
			counter(r, bad, "help")
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("label name with colon did not panic")
		}
	}()
	counter(r, "ok_total", "help", L("a:b", "v"))
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{10, 1, 5})
	for _, v := range []float64{0.5, 1, 1.5, 7, 100} {
		h.Observe(v)
	}
	cum, sum := h.snapshot()
	// le=1: {0.5, 1}; le=5: +{1.5}; le=10: +{7}; +Inf: +{100}.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d (all %v)", i, cum[i], w, cum)
		}
	}
	if want := 0.5 + 1 + 1.5 + 7 + 100; sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

func TestHistogramBucketMismatchPanics(t *testing.T) {
	r := NewRegistry()
	histogram(r, "h", "help", []float64{1, 2, 3})
	// Same bounds in another order, with an explicit +Inf: same family.
	histogram(r, "h", "help", []float64{3, math.Inf(1), 2, 1}, L("x", "y"))
	mustPanic(t, "a series with different buckets", func() { histogram(r, "h", "help", []float64{1, 2}, L("x", "z")) })
	mustPanic(t, "a duplicate bucket", func() { NewHistogram([]float64{1, 1}) })
	mustPanic(t, "no finite bucket", func() { NewHistogram([]float64{math.Inf(1)}) })
}

func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := counter(r, "ops_total", "ops")
	h := histogram(r, "dur", "dur", DurationBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Registered while the scraper below may already be rendering, as a
			// codec first seen mid-run registers its stage timers.
			g := gauge(r, "active", "g", L("w", string(rune('a'+w))))
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i%7) * 1e-3)
				g.Add(float64(i))
			}
		}(w)
	}
	stop := make(chan struct{})
	var scrapeErr error
	var sg sync.WaitGroup
	sg.Add(1)
	go func() {
		defer sg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				scrapeErr = err
				return
			}
			if _, err := promtext.ParseText(buf.Bytes()); err != nil {
				scrapeErr = err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	sg.Wait()
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if cum, _ := h.snapshot(); cum[len(cum)-1] != 8000 {
		t.Fatalf("histogram count = %d, want 8000", cum[len(cum)-1])
	}
}

func TestGaugeFuncSampledAtScrape(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.Register("sampled", "g", func() float64 { return v })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sampled 1\n") {
		t.Fatalf("first scrape missing value 1:\n%s", buf.String())
	}
	v = 42
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sampled 42\n") {
		t.Fatalf("second scrape missing value 42:\n%s", buf.String())
	}
}
