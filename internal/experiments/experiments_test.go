package experiments

import (
	"strings"
	"testing"
)

func TestAllRunnersRegistered(t *testing.T) {
	want := []string{"fig8", "fig9", "fig6a", "fig6bc", "table5", "metrics", "table1", "mixed", "netchain", "netload", "e2echain", "e2eload"}
	runners := All()
	if len(runners) != len(want) {
		t.Fatalf("expected %d runners, got %d", len(want), len(runners))
	}
	for _, name := range want {
		r, ok := ByName(name)
		if !ok {
			t.Errorf("runner %q not found", name)
			continue
		}
		if r.Run == nil || r.Description == "" {
			t.Errorf("runner %q incomplete", name)
		}
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("ByName should fail for unknown runners")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		ID:      "test",
		Caption: "a test table",
		Columns: []string{"col1", "longer column"},
		Rows:    [][]string{{"a", "b"}, {"cc", "dd"}},
	}
	out := tbl.String()
	if !strings.Contains(out, "test: a test table") {
		t.Fatal("caption missing")
	}
	if !strings.Contains(out, "col1") || !strings.Contains(out, "longer column") {
		t.Fatal("headers missing")
	}
	if !strings.Contains(out, "cc") {
		t.Fatal("row data missing")
	}
}

func TestFig8ValidationShape(t *testing.T) {
	opt := QuickOptions()
	tables := RunFig8Validation(opt)
	if len(tables) != 1 {
		t.Fatalf("expected 1 table, got %d", len(tables))
	}
	tbl := tables[0]
	if len(tbl.Rows) != 3 {
		t.Fatalf("expected 3 alpha points in quick mode, got %d", len(tbl.Rows))
	}
	// Fidelity must decrease with alpha (column 1 = F_sim).
	if tbl.Rows[0][1] <= tbl.Rows[2][1] {
		t.Errorf("fidelity should decrease with alpha: %v vs %v", tbl.Rows[0][1], tbl.Rows[2][1])
	}
	// Success probability must increase with alpha (column 3 = psucc_sim,
	// scientific notation compares correctly only numerically; parse via the
	// model column ordering instead: row order is ascending alpha).
	if tbl.Rows[0][4] == tbl.Rows[2][4] {
		t.Error("model success probability should vary with alpha")
	}
}

func TestFig9DecoherenceShape(t *testing.T) {
	tables := RunFig9Decoherence(QuickOptions())
	tbl := tables[0]
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	first := tbl.Rows[0]
	last := tbl.Rows[len(tbl.Rows)-1]
	// At zero rounds all fidelities are 1; after many rounds the
	// communication qubit is worse than the memory qubit, which is worse
	// than the decoupled qubit.
	if first[2] != "1.0000" || first[3] != "1.0000" {
		t.Fatalf("zero-storage fidelity should be 1: %v", first)
	}
	if !(last[2] < last[3] && last[3] <= last[4]) {
		t.Fatalf("expected F_comm < F_memory <= F_decoupled at long storage: %v", last)
	}
}

func TestQuickRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level experiment in short mode")
	}
	opt := QuickOptions()
	opt.SimulatedSeconds = 1
	tables := RunTable5Robustness(opt)
	tbl := tables[0]
	if len(tbl.Rows) != 2 {
		t.Fatalf("expected 2 loss points in quick mode, got %d", len(tbl.Rows))
	}
	// Relative differences are probabilities-like quantities; just check the
	// cells parse as formatted floats within [0, 2].
	for _, row := range tbl.Rows {
		for _, cell := range row[1:5] {
			if cell == "" {
				t.Fatal("empty metric cell")
			}
		}
	}
}

func TestQuickSchedulingTable(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level experiment in short mode")
	}
	opt := QuickOptions()
	opt.SimulatedSeconds = 1
	tables := RunTable1Scheduling(opt)
	if len(tables) != 2 {
		t.Fatalf("expected throughput and latency tables, got %d", len(tables))
	}
	if len(tables[0].Rows) != 4 || len(tables[1].Rows) != 4 {
		t.Fatalf("expected 4 rows (2 patterns × 2 schedulers): %d, %d", len(tables[0].Rows), len(tables[1].Rows))
	}
}
