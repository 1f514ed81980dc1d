// Package experiments implements one runner per table and figure of the
// paper's evaluation (Section 6 and Appendix C): the hardware-validation
// sweep of Figure 8, the memory-decoherence curves of Figure 9, the
// latency/throughput/fidelity trade-offs of Figure 6, the robustness study
// of Table 5, the single-kind performance metrics of Section 6.2, the
// scheduling comparison of Table 1 / Figure 7 and the mixed-load studies of
// Appendix Tables 3 and 4.
//
// Runs are scaled down from the paper's supercomputer campaign (hours of
// simulated time per scenario) to seconds of simulated time so the full
// suite completes on a laptop; `repro campaign` prints their tables for
// comparison with the paper's.
//
// Every runner decomposes its sweep into independent Trials executed on a
// shared worker pool sized by Options.Parallelism (default: one worker per
// CPU). Each trial derives its RNG seed deterministically from the base seed
// and its own coordinates via DeriveSeed, so tables are byte-identical at
// every parallelism level; raising Parallelism only reduces wall time.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/egp"
	"repro/internal/nv"
)

// Options controls the scale of every experiment runner.
type Options struct {
	// SimulatedSeconds is the simulated duration of each protocol run.
	SimulatedSeconds float64
	// Seed is the base random seed; each trial mixes it with its own
	// coordinates (see Trial.DeriveSeed) so runs differ but stay
	// reproducible.
	Seed int64
	// Quick reduces sweep resolution for smoke tests and Go benchmarks.
	Quick bool
	// Parallelism is the number of worker goroutines trials fan out across.
	// Zero or negative means runtime.GOMAXPROCS(0). Results are independent
	// of this value; only wall time changes.
	Parallelism int
}

// QuickOptions returns a reduced scale suitable for unit tests and
// continuous benchmarking.
func QuickOptions() Options {
	return Options{SimulatedSeconds: 2, Seed: 1, Quick: true}
}

// Table is a rendered experiment result: a caption, column headers and rows
// of already-formatted cells.
type Table struct {
	ID      string
	Caption string
	Columns []string
	Rows    [][]string
}

// String renders the table as aligned plain text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Caption)
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
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	writeRow(divider(widths))
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func divider(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Runner is a named experiment that produces one or more tables.
type Runner struct {
	Name        string
	Description string
	Run         func(Options) []Table
}

// All returns every experiment runner, keyed by the table/figure it
// reproduces.
func All() []Runner {
	return []Runner{
		{Name: "fig8", Description: "Validation against NV hardware: fidelity and success probability vs alpha (Fig. 8/10)", Run: RunFig8Validation},
		{Name: "fig9", Description: "Fidelity decay of stored entanglement vs communication rounds (Fig. 9)", Run: RunFig9Decoherence},
		{Name: "fig6a", Description: "Scaled latency vs offered load (Fig. 6a)", Run: RunFig6Load},
		{Name: "fig6bc", Description: "Scaled latency and throughput vs requested fidelity (Fig. 6b,c)", Run: RunFig6Fidelity},
		{Name: "table5", Description: "Robustness to classical frame loss (Sec. 6.1, Table 5)", Run: RunTable5Robustness},
		{Name: "metrics", Description: "Single-kind performance metrics: fidelity, throughput, latency, fairness (Sec. 6.2)", Run: RunSection62Metrics},
		{Name: "table1", Description: "Scheduling strategies FCFS vs WFQ (Sec. 6.3, Table 1, Fig. 7)", Run: RunTable1Scheduling},
		{Name: "mixed", Description: "Mixed-load throughput, scaled and request latencies (App. Tables 3 and 4)", Run: RunMixed},
		{Name: "netchain", Description: "Multi-link chain-length scaling on the netsim network layer", Run: RunNetChain},
		{Name: "netload", Description: "Per-link load contention on a star topology (netsim network layer)", Run: RunNetLoad},
		{Name: "e2echain", Description: "End-to-end repeater-chain length scaling with entanglement swapping", Run: RunE2EChain},
		{Name: "e2eload", Description: "End-to-end load x fidelity-floor sweep on a 4-hop chain", Run: RunE2ELoad},
	}
}

// ByName returns the runner with the given name.
func ByName(name string) (Runner, bool) {
	for _, r := range All() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

// Cell formatting helpers shared by the experiment tables.
func f3(v float64) string        { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string        { return fmt.Sprintf("%.4f", v) }
func itoa(v int) string          { return fmt.Sprintf("%d", v) }
func formatSci(v float64) string { return fmt.Sprintf("%.3e", v) }

// priorityOrder lists the priorities in reporting order.
var priorityOrder = []int{egp.PriorityNL, egp.PriorityCK, egp.PriorityMD}

// scenarioList returns the hardware scenarios to sweep.
func scenarioList(opt Options) []nv.ScenarioID {
	if opt.Quick {
		return []nv.ScenarioID{nv.ScenarioLab}
	}
	return []nv.ScenarioID{nv.ScenarioLab, nv.ScenarioQL2020}
}

// sortedKeys returns the sorted keys of a map for deterministic output.
func sortedKeys[M ~map[K]V, K int | string, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
