package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestGetOrCreateReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "help", L("x", "1"))
	b := r.Counter("dup_total", "help", L("x", "1"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("dup_total", "help", L("x", "2"))
	if a == other {
		t.Fatal("distinct label values returned the same counter")
	}
	// Label order must not matter.
	h1 := r.Histogram("h", "help", []float64{1, 2}, L("a", "1"), L("b", "2"))
	h2 := r.Histogram("h", "help", []float64{1, 2}, L("b", "2"), L("a", "1"))
	if h1 != h2 {
		t.Fatal("label order produced distinct histogram series")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "help")
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
			r.Counter(bad, "help")
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("label name with colon did not panic")
		}
	}()
	r.Counter("ok_total", "help", L("a:b", "v"))
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 5, 10})
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
	r.Histogram("h", "help", []float64{1, 2, 3})
	// Same bounds in another order, with an explicit +Inf: same family.
	r.Histogram("h", "help", []float64{3, math.Inf(1), 2, 1}, L("x", "y"))
	defer func() {
		if recover() == nil {
			t.Fatal("different buckets did not panic")
		}
	}()
	r.Histogram("h", "help", []float64{1, 2})
}

func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	h := r.Histogram("dur", "dur", DurationBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i%7) * 1e-3)
				r.Gauge("active", "g", L("w", string(rune('a'+w)))).Set(float64(i))
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
			if _, err := ParseText(buf.Bytes()); err != nil {
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
	r.GaugeFunc("sampled", "g", func() float64 { return v })
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
