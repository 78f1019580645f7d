// Package experiments regenerates every table and figure of the FedSZ
// paper's evaluation section. Each generator returns a structured Table so
// the cmd/fedsz-bench CLI, the test suite, and the benchmark targets share
// one implementation.
//
// Two fidelity levels exist:
//
//   - Quick (default): profile models at ProfileScale of the paper's
//     parameter counts, mini-FL runs at reduced image size / round count.
//     Everything completes in minutes on a laptop.
//   - Full (-full in the CLI): larger profile scale, more rounds, all
//     model × dataset combinations.
//
// Absolute runtimes differ from the paper's Raspberry Pi 5 testbed; the
// reproduction targets are the *shapes*: compressor rankings, the 1e-2
// accuracy cliff, the ~500 Mbps compression crossover, scaling slopes, and
// the Laplacian error profile.
package experiments

import (
	"fmt"
	"strings"
)

// Config tunes experiment cost.
type Config struct {
	// Seed drives all synthetic data and training.
	Seed uint64
	// ProfileScale scales paper parameter counts for profile models.
	ProfileScale float64
	// Rounds is the FL communication-round count for accuracy experiments.
	Rounds int
	// Clients is the FedAvg client count (the paper uses 4).
	Clients int
	// TrainN / TestN are per-dataset sample counts for mini-FL.
	TrainN, TestN int
	// ImageSide caps training image size.
	ImageSide int
	// AllCombos runs every model × dataset pair where the quick mode picks
	// representatives.
	AllCombos bool
}

// QuickConfig returns the default (fast) configuration.
func QuickConfig() Config {
	return Config{
		Seed:         1,
		ProfileScale: 0.05,
		Rounds:       8,
		Clients:      4,
		TrainN:       192,
		TestN:        64,
		ImageSide:    12,
	}
}

// FullConfig returns the high-fidelity configuration.
func FullConfig() Config {
	return Config{
		Seed:         1,
		ProfileScale: 0.2,
		Rounds:       15,
		Clients:      4,
		TrainN:       384,
		TestN:        128,
		ImageSide:    16,
		AllCombos:    true,
	}
}

// Table is the structured output of one experiment.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends an explanatory footnote.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", max(total-2, 4)))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Generator produces one experiment's table.
type Generator func(Config) (*Table, error)

// Registry maps experiment IDs to generators, in paper order.
func Registry() []struct {
	ID  string
	Gen Generator
} {
	return []struct {
		ID  string
		Gen Generator
	}{
		{"table1", Table1},
		{"table2", Table2},
		{"table3", Table3},
		{"table4", Table4},
		{"table5", Table5},
		{"fig2", Fig2},
		{"fig3", Fig3},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"ablate-partition", AblatePartition},
		{"ablate-threshold", AblateThreshold},
		{"ablate-errormode", AblateErrorMode},
		{"ablate-lr", AblateLearningRate},
	}
}

// Get returns the generator for an experiment ID.
func Get(id string) (Generator, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Gen, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
}

// IDs lists all experiment IDs in registry order.
func IDs() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	return out
}
