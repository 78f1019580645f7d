// Command bench measures one federated round of this repository end to end
// and layer by layer. See README.md in this directory.
//
//	go run ./bench -seed 1                       every workload, each in a fresh child process, untraced then traced
//	go run ./bench -seed 1 -repeat 5             the untraced set with seeds 1 to 5, with spreads against BENCHMARK.json's bounds
//	go run ./bench --workload round_lan --seed 1 --seconds 20 --trace 0
//	                                             one run in this process; the last line of output is its JSON result
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload, in this process (default: all, each in a child process)")
		seed    = flag.Uint64("seed", 1, "input seed, the only source of randomness")
		seconds = flag.Float64("seconds", 20, "length of one run's measured window")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		rounds  = flag.Int("rounds", 0, "measure exactly this many rounds instead of -seconds")
		repeat  = flag.Int("repeat", 1, "without -workload: run the untraced set this many times, with seeds seed, seed+1, ..., and report spreads")
		outDir  = flag.String("out", "", "directory for trace and result files (default: none with -workload, else a new temp dir)")
		spec    = flag.String("benchmark-json", "BENCHMARK.json", "where -repeat reads each metric's bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		// Only the untraced run reports setup_s, the median of its set-ups.
		setups := 3
		if *trace != 0 {
			setups = 1
		}
		res, err := run(runConfig{
			workload: w, seed: *seed, seconds: *seconds, rounds: *rounds, trace: *trace != 0,
			scale: 1, setups: setups, outDir: *outDir, log: os.Stdout,
		})
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	if *outDir == "" {
		dir, err := os.MkdirTemp("", "fedsz-bench-")
		if err != nil {
			fatal(err)
		}
		*outDir = dir
	}
	if err := runAll(*seed, *seconds, *rounds, *repeat, *outDir, *spec); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// child runs one workload in a fresh process — a re-exec of this binary, so
// pools, RSS and GC state never leak from one workload into the next — and
// parses the result off the last line of its output.
func child(w workload, seed uint64, seconds float64, rounds, trace int, outDir string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-rounds", strconv.Itoa(rounds),
		"-trace", strconv.Itoa(trace),
		"-out", outDir)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, os.Stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, runErr)
		}
		return nil, fmt.Errorf("workload %s: no result on the last line: %w", w.name, err)
	}
	return &res, nil
}

// runAll is the one command that prints every metric by name: each workload
// untraced (repeat times, each with the next seed, as the acceptance check
// of the benchmark does) and traced (once), each run in its own process.
func runAll(seed uint64, seconds float64, rounds, repeat int, outDir, specPath string) error {
	type key struct{ workload, metric string }
	samples := map[key][]float64{}
	results := map[string]map[string]*runResult{}
	failed := 0
	for rep := 0; rep < max(1, repeat); rep++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				if trace == 1 && rep > 0 {
					continue
				}
				res, err := child(w, seed+uint64(rep), seconds, rounds, trace, outDir)
				if err != nil {
					return err
				}
				failed += res.Failed
				if !res.Correct {
					failed = max(failed, 1)
				}
				if trace == 0 {
					for m, o := range res.Metrics {
						samples[key{w.name, m}] = append(samples[key{w.name, m}], o.Value)
					}
				}
				if rep == 0 {
					if results[w.name] == nil {
						results[w.name] = map[string]*runResult{}
					}
					results[w.name][[]string{"end_to_end", "per_layer"}[trace]] = res
				}
			}
		}
	}

	fmt.Printf("\n%-14s %-24s %12s %12s %12s %9s %9s  %s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "unit")
	var bounds map[string]float64
	if repeat > 1 {
		var err error
		if bounds, err = readBounds(specPath); err != nil {
			return err
		}
	}
	type spreadRow struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		Median   float64 `json:"median"`
		IQRShare float64 `json:"iqr_over_median"`
		RngShare float64 `json:"range_over_median"`
	}
	var rows []spreadRow
	var wide []string
	for _, w := range workloads {
		for _, d := range endToEnd {
			xs := samples[key{w.name, d.name}]
			q1, med, q3 := quartiles(xs)
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			row := spreadRow{w.name, d.name, med, ratio(q3-q1, med), ratio(s[len(s)-1]-s[0], med)}
			rows = append(rows, row)
			fmt.Printf("%-14s %-24s %12.4f %12.4f %12.4f %8.2f%% %8.2f%%  %s\n",
				w.name, d.name, med, q1, q3, 100*row.IQRShare, 100*row.RngShare, d.unit)
			// The acceptance check exempts setup_s from the spread rule.
			if b, ok := bounds[d.name]; ok && d.name != "setup_s" && row.IQRShare > b {
				wide = append(wide, fmt.Sprintf("%s/%s: spread %.2f%% exceeds bound %.2f%%", w.name, d.name, 100*row.IQRShare, 100*b))
			}
		}
	}

	summary := map[string]any{"seed": seed, "seconds": seconds, "repeat": repeat, "results": results, "spreads": rows}
	buf, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result_seed%d.json", seed))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("results and traces in %s\n", outDir)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if len(wide) > 0 {
		return fmt.Errorf("measurement too noisy for its bound:\n  %s", strings.Join(wide, "\n  "))
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the rule the
// acceptance check applies; a single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// readBounds returns each end-to-end metric's regression bound.
func readBounds(path string) (map[string]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
