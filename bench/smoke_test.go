package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
	PerLayer  []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func sortedNames[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	sort.Strings(out)
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Errorf("%s: the program has %s, BENCHMARK.json declares %s", what, a, b)
	}
}

// TestSmoke runs every workload, untraced and traced with the staged replay,
// at toy size, and holds what it emits against BENCHMARK.json: an API removed
// from under the benchmark, or a metric renamed on one side only, fails here
// instead of silently changing what is measured.
func TestSmoke(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	sameSet(t, "workloads",
		sortedNames(workloads, func(w workload) string { return w.name }),
		sortedNames(spec.Workloads, func(w specWorkload) string { return w.Name }))
	declared := map[bool][]specMetric{false: spec.EndToEnd, true: spec.PerLayer}
	for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
		units := map[string]specMetric{}
		for _, m := range declared[traced] {
			units[m.Name] = m
		}
		for _, d := range defs {
			if m := units[d.name]; m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s: the program says %s, %s is better; BENCHMARK.json says %q, %q", d.name, d.unit, d.better, m.Unit, m.Better)
			}
		}
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(runConfig{
				workload: w, seed: 1, seconds: 0.5, rounds: 2, trace: traced,
				scale: 0.05, setups: 1, outDir: t.TempDir(), log: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d failed of %d attempted", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			var got []string
			for name, o := range res.Metrics {
				got = append(got, name)
				if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, o.Value)
				}
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q is outside the allowed alphabet", w.name, name)
				}
			}
			sort.Strings(got)
			sameSet(t, w.name+" metrics", got, sortedNames(declared[traced], func(m specMetric) string { return m.Name }))
		}
	}
}
