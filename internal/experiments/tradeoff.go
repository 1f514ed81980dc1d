package experiments

import (
	"repro/internal/egp"
	"repro/internal/nv"
	"repro/internal/workload"
)

// RunFig6Load reproduces Figure 6(a): the scaled request latency as a
// function of the offered load fraction f_P for the three request kinds on
// the QL2020 hardware, with kmax = 3 and Fmin = 0.64.
func RunFig6Load(opt Options) []Table {
	loads := []float64{0.3, 0.7, 0.99, 1.2, 1.5}
	if opt.Quick {
		loads = []float64{0.7, 1.2}
	}
	scenario := nv.ScenarioQL2020
	if opt.Quick {
		scenario = nv.ScenarioLab
	}
	table := Table{
		ID:      "fig6a",
		Caption: "Scaled latency (s) vs offered load fraction f_P (QL2020, kmax=3, Fmin=0.64)",
		Columns: []string{"f_P", "kind", "scaled_latency(s)", "throughput(1/s)", "queue_len(avg)"},
	}
	var trials []Trial
	for _, load := range loads {
		for _, priority := range priorityOrder {
			trials = append(trials, Trial{
				Runner:   "fig6a",
				Scenario: scenario,
				Priority: priority,
				Load:     load,
				Fidelity: 0.64,
				KMax:     3,
			})
		}
	}
	table.Rows = runTrials(opt, trials, func(t Trial) []string {
		classes := workload.SingleKind(t.Priority, workload.LoadLevel(t.Load), t.KMax)
		stats := runProtocolTrial(opt, t, classes, nil)
		return []string{
			f3(t.Load),
			egp.PriorityName(t.Priority),
			f3(stats.ScaledLatency(t.Priority).Mean()),
			f3(stats.Throughput(t.Priority)),
			f3(stats.QueueLength().Mean()),
		}
	})
	return []Table{table}
}

// RunFig6Fidelity reproduces Figure 6(b) and 6(c): scaled latency and
// throughput as a function of the requested minimum fidelity at fixed load
// f_P = 0.99 (QL2020, kmax = 3).
func RunFig6Fidelity(opt Options) []Table {
	fidelities := []float64{0.55, 0.60, 0.64, 0.68, 0.72}
	if opt.Quick {
		fidelities = []float64{0.55, 0.64, 0.72}
	}
	scenario := nv.ScenarioQL2020
	if opt.Quick {
		scenario = nv.ScenarioLab
	}
	latencyTable := Table{
		ID:      "fig6b",
		Caption: "Scaled latency (s) vs requested minimum fidelity (f_P=0.99, kmax=3)",
		Columns: []string{"Fmin", "kind", "scaled_latency(s)", "unsupported"},
	}
	throughputTable := Table{
		ID:      "fig6c",
		Caption: "Throughput (1/s) vs requested minimum fidelity (f_P=0.99, kmax=3)",
		Columns: []string{"Fmin", "kind", "throughput(1/s)", "avg_fidelity"},
	}
	var trials []Trial
	for _, fmin := range fidelities {
		for _, priority := range priorityOrder {
			trials = append(trials, Trial{
				Runner:   "fig6bc",
				Scenario: scenario,
				Priority: priority,
				Load:     0.99,
				Fidelity: fmin,
				KMax:     3,
			})
		}
	}
	rows := runTrials(opt, trials, func(t Trial) [2][]string { return fig6bcRows(opt, t) })
	for _, pair := range rows {
		latencyTable.Rows = append(latencyTable.Rows, pair[0])
		throughputTable.Rows = append(throughputTable.Rows, pair[1])
	}
	return []Table{latencyTable, throughputTable}
}

// fig6bcRows runs one Figure 6(b,c) trial and returns its fig6b and fig6c
// rows. A class whose Fmin no bright-state population reaches offers no
// load, so the link never replies UNSUPP to it: the fig6b row's unsupported
// column says whether the link's FEU finds Fmin out of reach.
func fig6bcRows(opt Options, t Trial) [2][]string {
	classes := workload.SingleKind(t.Priority, workload.LoadLevel(t.Load), t.KMax)
	for i := range classes {
		classes[i].MinFidelity = t.Fidelity
	}
	stats := runProtocolTrial(opt, t, classes, nil)
	unsupported := "no"
	if _, ok := stats.feu.AlphaForFidelity(t.Fidelity); !ok {
		unsupported = "yes"
	}
	return [2][]string{
		{
			f3(t.Fidelity),
			egp.PriorityName(t.Priority),
			f3(stats.ScaledLatency(t.Priority).Mean()),
			unsupported,
		},
		{
			f3(t.Fidelity),
			egp.PriorityName(t.Priority),
			f3(stats.Throughput(t.Priority)),
			f3(stats.Fidelity(t.Priority).Mean()),
		},
	}
}
