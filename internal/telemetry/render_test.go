package telemetry

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/promtext"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry exercising every rendering edge the
// exposition format has: metric and label escaping, multiple series per
// family, gauge funcs, histogram +Inf buckets, and float formatting.
func goldenRegistry() *Registry {
	r := NewRegistry()
	c := counter(r, "acme_requests_total", "Requests served.", L("method", "get"), L("path", `/metrics`))
	c.Add(1027)
	counter(r, "acme_requests_total", "Requests served.", L("method", "post"), L("path", `/up"load`)).Add(3)

	g := gauge(r, "acme_temperature_celsius", "Ambient temperature.\nSecond help line with a \\ backslash.")
	g.Add(-40.25)
	r.Register("acme_boot_time_seconds", "Boot time.", func() float64 { return 1.5e9 })

	h := histogram(r, "acme_request_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.02, 0.02, 0.5, 3} {
		h.Observe(v)
	}
	hl := histogram(r, "acme_request_seconds", "Request latency.", []float64{0.01, 0.1, 1},
		L("tricky", "newline\nquote\"backslash\\done"))
	hl.Observe(0.05)

	e := gauge(r, "acme_edge_values", "Non-finite and big values.", L("case", "inf"))
	e.Add(math.Inf(1))
	gauge(r, "acme_edge_values", "Non-finite and big values.", L("case", "big")).Add(1e18)
	gauge(r, "acme_edge_values", "Non-finite and big values.", L("case", "tiny")).Add(2.5e-9)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden (re-bless with -update):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestExpositionRoundTrip re-parses the rendered exposition and checks the
// invariants a Prometheus server would rely on: every +Inf bucket equals
// its _count, bucket counts are monotonic in le, and the escaped label
// values survive the round trip byte-for-byte.
func TestExpositionRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := promtext.ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	if s, ok := promtext.FindSample(samples, "acme_requests_total", "method", "post"); !ok || s.Labels["path"] != `/up"load` {
		t.Fatalf("escaped label value lost: %+v (found %v)", s, ok)
	}
	if s, ok := promtext.FindSample(samples, "acme_request_seconds_count", "tricky", "newline\nquote\"backslash\\done"); !ok || s.Value != 1 {
		t.Fatalf("tricky-label histogram count: %+v (found %v)", s, ok)
	}

	// Histogram invariants for the unlabeled series (matching tricky=""
	// selects the series that lacks the label).
	inf, ok := promtext.FindSample(samples, "acme_request_seconds_bucket", "le", "+Inf", "tricky", "")
	if !ok {
		t.Fatal("no +Inf bucket for acme_request_seconds")
	}
	cnt, ok := promtext.FindSample(samples, "acme_request_seconds_count", "tricky", "")
	if !ok || cnt.Value != inf.Value {
		t.Fatalf("_count %v != +Inf bucket %v", cnt.Value, inf.Value)
	}
	if cnt.Value != 5 {
		t.Fatalf("_count = %v, want 5", cnt.Value)
	}
	var sum promtext.Sample
	for _, s := range samples {
		if s.Name == "acme_request_seconds_sum" && s.Labels["tricky"] == "" {
			sum = s
		}
	}
	if want := 0.005 + 0.02 + 0.02 + 0.5 + 3; math.Abs(sum.Value-want) > 1e-12 {
		t.Fatalf("_sum = %v, want %v", sum.Value, want)
	}
	prev := -1.0
	for _, s := range samples {
		if s.Name != "acme_request_seconds_bucket" || s.Labels["tricky"] != "" {
			continue
		}
		if s.Value < prev {
			t.Fatalf("bucket counts not monotonic: %v after %v", s.Value, prev)
		}
		prev = s.Value
	}

	if s, _ := promtext.FindSample(samples, "acme_edge_values", "case", "inf"); !math.IsInf(s.Value, 1) {
		t.Fatalf("inf gauge parsed as %v", s.Value)
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`metric{a="unterminated} 1`,
		`metric{a=unquoted} 1`,
		`metric{a="x",a="y"} 1`,
		`metric notanumber`,
		`0badname 1`,
		"# TYPE m nonsense",
	} {
		if _, err := promtext.ParseText([]byte(bad)); err == nil {
			t.Errorf("ParseText accepted %q", bad)
		}
	}
}
