package experiments

import (
	"testing"

	"repro/internal/egp"
	"repro/internal/nv"
)

// TestFig6bUnsupportedColumn: fig6b's unsupported column says whether the
// link can reach the trial's Fmin at all. An Fmin above the platform's best
// heralded fidelity is unsupported and offers no load; the paper's 0.64 is
// supported.
func TestFig6bUnsupportedColumn(t *testing.T) {
	opt := Options{SimulatedSeconds: 0.05, Seed: 1}
	for _, tc := range []struct {
		fmin float64
		want string
	}{
		{0.99, "yes"},
		{0.64, "no"},
	} {
		trial := Trial{Runner: "fig6bc", Scenario: nv.ScenarioLab, Priority: egp.PriorityMD, Load: 0.99, Fidelity: tc.fmin, KMax: 3}
		rows := fig6bcRows(opt, trial)
		if got := rows[0][3]; got != tc.want {
			t.Errorf("Fmin %.2f: unsupported %q, want %q (row %v)", tc.fmin, got, tc.want, rows[0])
		}
		if tc.want == "yes" && rows[1][2] != f3(0) {
			t.Errorf("Fmin %.2f is out of reach, but the link delivered at %s pairs/s", tc.fmin, rows[1][2])
		}
	}
}
