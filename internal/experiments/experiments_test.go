package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// tinyConfig keeps generator tests fast: minimal rounds and data.
func tinyConfig() Config {
	return Config{
		Seed:         3,
		ProfileScale: 0.01,
		Rounds:       2,
		Clients:      2,
		TrainN:       48,
		TestN:        24,
		ImageSide:    10,
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{
		"table1", "table2", "table3", "table4", "table5",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"ablate-partition", "ablate-threshold", "ablate-errormode", "ablate-lr",
	}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(ids), len(want), ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("registry order %v, want %v", ids, want)
		}
	}
	if _, err := Get("table1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Columns: []string{"A", "BB"}}
	tb.AddRow("1", "2")
	tb.AddNote("hello %d", 7)
	out := tb.Render()
	for _, want := range []string{"demo", "A", "BB", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// runGen executes a generator under the tiny config and checks structure.
func runGen(t *testing.T, id string) *Table {
	t.Helper()
	gen, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := gen(tinyConfig())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tb.ID != id {
		t.Fatalf("%s: table id %q", id, tb.ID)
	}
	if len(tb.Rows) == 0 {
		t.Fatalf("%s: no rows", id)
	}
	for i, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Fatalf("%s row %d: %d cells for %d columns", id, i, len(row), len(tb.Columns))
		}
	}
	return tb
}

func TestTable2Structure(t *testing.T) {
	tb := runGen(t, "table2")
	codecs := map[string]int{}
	for _, row := range tb.Rows {
		codecs[row[0]]++
		// Every ratio must be >= 0.9 (codecs never catastrophically expand),
		// on the partition and in the pipeline.
		for _, col := range []int{4, 5} {
			r, err := strconv.ParseFloat(row[col], 64)
			if err != nil || r < 0.9 {
				t.Fatalf("%s codec %s %s %q", row[0], row[1], tb.Columns[col], row[col])
			}
		}
	}
	if len(tb.Rows) != 10 || codecs["alexnet"] != 5 || codecs["mobilenetv2"] != 5 {
		t.Fatalf("want 5 lossless codecs for each of alexnet and mobilenetv2, got %v", codecs)
	}
}

func TestTable3MatchesPaperOrdering(t *testing.T) {
	tb := runGen(t, "table3")
	if len(tb.Rows) != 3 {
		t.Fatal("want 3 models")
	}
	// %LossyData ordering: mobilenet < resnet < alexnet.
	frac := map[string]string{}
	for _, row := range tb.Rows {
		frac[row[0]] = row[3]
	}
	if !(frac["mobilenetv2"] < frac["resnet50"] && frac["resnet50"] < frac["alexnet"]) {
		t.Fatalf("lossy-data ordering violated: %v", frac)
	}
}

func TestTable4Structure(t *testing.T) {
	tb := runGen(t, "table4")
	if len(tb.Rows) != 3 {
		t.Fatal("want 3 datasets")
	}
}

func TestTable5RatiosGrowWithBound(t *testing.T) {
	tb := runGen(t, "table5")
	for _, row := range tb.Rows {
		var prev float64 = 1e18
		for _, cell := range row[2:] {
			r, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad ratio cell %q", cell)
			}
			if r > prev*1.1 {
				t.Fatalf("row %v: ratio not declining with tighter bounds", row)
			}
			prev = r
		}
		// REL 1e-2 column should be a solid ratio.
		r, _ := strconv.ParseFloat(row[3], 64)
		if r < 3 {
			t.Errorf("row %v: REL 1e-2 ratio %v < 3", row[:2], r)
		}
	}
}

func TestFig2WeightsSpikierThanScience(t *testing.T) {
	tb := runGen(t, "fig2")
	var wMin, sMax float64 = 1e18, 0
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad smoothness %q", row[2])
		}
		switch row[0] {
		case "fl-weights":
			if v < wMin {
				wMin = v
			}
		case "miranda-like":
			if v > sMax {
				sMax = v
			}
		}
	}
	if wMin <= sMax {
		t.Fatalf("weights (min %.4f) must be spikier than science data (max %.4f)", wMin, sMax)
	}
}

func TestFig3Structure(t *testing.T) {
	tb := runGen(t, "fig3")
	if len(tb.Rows) != 3 {
		t.Fatal("want 3 models")
	}
}

func TestFig8HasCrossover(t *testing.T) {
	tb := runGen(t, "fig8")
	// At 1 Mbps a compressor must win; at 10000 Mbps original must win.
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if first[len(first)-1] == "original" {
		t.Errorf("at 1 Mbps compression should win: %v", first)
	}
	if last[len(last)-1] != "original" {
		t.Errorf("at 10 Gbps original should win: %v", last)
	}
	// As bandwidth grows the winner may flip from a codec to original, but
	// never back.
	w, flips := len(first)-1, 0
	for i := 1; i < len(tb.Rows); i++ {
		if (tb.Rows[i-1][w] == "original") != (tb.Rows[i][w] == "original") {
			flips++
		}
	}
	if flips > 1 {
		t.Errorf("winner flipped between a codec and original %d times: %v", flips, tb.Rows)
	}
}

// TestFig8SweepGolden pins Fig 8's rows and note for fixed paper-scale
// costs. The expected rows are what the earlier inline sum (codec time +
// TransmitTime per codec, the minimum against the raw transfer) printed for
// these costs, so routing the sweep through netsim.ShouldCompress must not
// move a digit, a winner or the crossover.
func TestFig8SweepGolden(t *testing.T) {
	const raw = 244_403_200 // AlexNet's 61.1 M float32 parameters
	for _, tc := range []struct {
		name  string
		costs []paperCost // sz2, sz3, zfp
		rows  [][]string
		note  string
	}{
		{
			name: "crossover",
			costs: []paperCost{
				{912_345_678, 351_234_567, raw, 18_123_457},
				{1_604_938_271, 502_469_135, raw, 12_345_679},
				{251_851_852, 198_765_432, raw, 60_493_827},
			},
			rows: [][]string{
				{"1", "146.251s", "100.873s", "484.401s", "1955.226s", "sz3"},
				{"5", "30.261s", "21.860s", "97.241s", "391.045s", "sz3"},
				{"10", "15.762s", "11.984s", "48.846s", "195.523s", "sz3"},
				{"50", "4.163s", "4.083s", "10.130s", "39.105s", "sz3"},
				{"100", "2.713s", "3.095s", "5.290s", "19.552s", "sz2"},
				{"500", "1.554s", "2.305s", "1.419s", "3.910s", "zfp"},
				{"1000", "1.409s", "2.206s", "0.935s", "1.955s", "zfp"},
				{"5000", "1.293s", "2.127s", "0.547s", "0.391s", "original"},
				{"10000", "1.278s", "2.117s", "0.499s", "0.196s", "original"},
			},
			note: "compression stops paying off near 5000 Mbps (paper: ~500 Mbps)",
		},
		{
			name: "always",
			costs: []paperCost{
				{12_345_678, 6_172_839, raw, 2_222_223},
				{20_987_654, 9_876_543, raw, 1_851_852},
				{3_703_704, 2_469_136, raw, 9_876_543},
			},
			rows: [][]string{
				{"1", "17.796s", "14.846s", "79.019s", "1955.226s", "sz3"},
				{"5", "3.574s", "2.994s", "15.809s", "391.045s", "sz3"},
				{"10", "1.796s", "1.512s", "7.907s", "195.523s", "sz3"},
				{"50", "0.374s", "0.327s", "1.586s", "39.105s", "sz3"},
				{"100", "0.196s", "0.179s", "0.796s", "19.552s", "sz3"},
				{"500", "0.054s", "0.060s", "0.164s", "3.910s", "sz2"},
				{"1000", "0.036s", "0.046s", "0.085s", "1.955s", "sz2"},
				// sz2 and zfp both print 0.022s; zfp is faster in nanoseconds.
				{"5000", "0.022s", "0.034s", "0.022s", "0.391s", "zfp"},
				{"10000", "0.020s", "0.032s", "0.014s", "0.196s", "zfp"},
			},
			note: "compression wins at every tested bandwidth",
		},
	} {
		tb := &Table{}
		fig8Sweep(tb, tc.costs)
		if !reflect.DeepEqual(tb.Rows, tc.rows) {
			t.Errorf("%s: rows\n%v\nwant\n%v", tc.name, tb.Rows, tc.rows)
		}
		if len(tb.Notes) != 1 || tb.Notes[0] != tc.note {
			t.Errorf("%s: notes %q, want [%q]", tc.name, tb.Notes, tc.note)
		}
	}
}

func TestFig9ScalingShapes(t *testing.T) {
	tb := runGen(t, "fig9")
	var weak, strong [][]string
	for _, row := range tb.Rows {
		switch row[0] {
		case "weak":
			weak = append(weak, row)
		case "strong":
			strong = append(strong, row)
		}
	}
	if len(weak) != 7 || len(strong) != 7 {
		t.Fatalf("want 7+7 scaling points, got %d+%d", len(weak), len(strong))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
		if err != nil {
			t.Fatalf("bad duration %q", s)
		}
		return v
	}
	// Weak scaling: round time grows with clients.
	for i := 1; i < len(weak); i++ {
		if parse(weak[i][3]) <= parse(weak[i-1][3]) {
			t.Fatalf("weak scaling not growing: %v -> %v", weak[i-1], weak[i])
		}
	}
	// Strong scaling: round time shrinks (or holds) with workers.
	for i := 1; i < len(strong); i++ {
		if parse(strong[i][3]) > parse(strong[i-1][3])*1.001 {
			t.Fatalf("strong scaling regressed: %v -> %v", strong[i-1], strong[i])
		}
	}
}

func TestFig10LaplaceWins(t *testing.T) {
	tb := runGen(t, "fig10")
	wins := 0
	for _, row := range tb.Rows {
		if row[5] == "true" {
			wins++
		}
	}
	if wins < 2 {
		t.Fatalf("Laplace should beat Gaussian on most bounds, won %d of %d", wins, len(tb.Rows))
	}
}

func TestAblateThresholdStructure(t *testing.T) {
	tb := runGen(t, "ablate-threshold")
	if len(tb.Rows) != 5 {
		t.Fatalf("want 5 thresholds, got %d", len(tb.Rows))
	}
	// Lossy tensor count must not increase with threshold.
	prev := 1 << 30
	for _, row := range tb.Rows {
		n, _ := strconv.Atoi(row[1])
		if n > prev {
			t.Fatalf("lossy tensors grew with threshold: %v", tb.Rows)
		}
		prev = n
	}
}

func TestAblateErrorModeStructure(t *testing.T) {
	tb := runGen(t, "ablate-errormode")
	if len(tb.Rows) != 4 {
		t.Fatal("want 4 rows")
	}
}
