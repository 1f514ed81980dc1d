package experiments

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// netsimTrial builds and runs one multi-link network for a trial: the
// topology is produced by build, the per-link Poisson load comes from the
// trial's Load coordinate, and the RNG seed derives from the trial
// coordinates so results are parallelism-independent.
func netsimTrial(opt Options, t Trial, spec netsim.Spec, kmax int) *netsim.Network {
	cfg := netsim.DefaultConfig(spec, t.Scenario)
	cfg.Seed = t.DeriveSeed(opt.Seed)
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: bad netsim spec %s: %v", spec, err))
	}
	if _, err := nw.AttachWorkload([]workload.ClassSpec{workload.PoissonClass(t.Load, kmax, t.Fidelity, false)}); err != nil {
		panic(fmt.Sprintf("experiments: bad netsim workload: %v", err))
	}
	nw.Run(sim.DurationSeconds(opt.SimulatedSeconds))
	return nw
}

// RunNetChain sweeps the chain length at fixed per-link load: the first
// multi-link scaling study above the paper's single-link scope. Aggregate
// throughput should scale roughly linearly with the number of links since
// per-link state machines never synchronise across links.
func RunNetChain(opt Options) []Table {
	lengths := []int{2, 4, 8}
	if opt.Quick {
		lengths = []int{2, 3}
	}
	const load, fmin, kmax = 0.7, 0.64, 2
	table := Table{
		ID:      "netchain",
		Caption: fmt.Sprintf("Multi-link chain scaling at per-link load %.2f (kmax=%d, Fmin=%.2f)", load, kmax, fmin),
		Columns: []string{"scenario", "nodes", "links", "pairs", "throughput(1/s)", "per-link(1/s)", "fidelity", "lat_p50(s)", "lat_p99(s)", "queue(avg)"},
	}
	var trials []Trial
	for _, sc := range scenarioList(opt) {
		for _, n := range lengths {
			trials = append(trials, Trial{
				Runner:   "netchain",
				Scenario: sc,
				Load:     load,
				Fidelity: fmin,
				KMax:     kmax,
				Aux:      float64(n),
			})
		}
	}
	table.Rows = runTrials(opt, trials, func(t Trial) []string {
		n := int(t.Aux)
		nw := netsimTrial(opt, t, netsim.Chain(n), t.KMax)
		_, agg := nw.Stats()
		links := n - 1
		return []string{
			string(t.Scenario),
			itoa(n),
			itoa(links),
			itoa(agg.Pairs),
			f3(agg.OKRate),
			f3(agg.OKRate / float64(links)),
			f3(agg.Fidelity),
			f4(agg.LatencyP50),
			f4(agg.LatencyP99),
			f3(agg.QueueMean),
		}
	})
	return []Table{table}
}

// RunNetLoad sweeps the per-link offered load on a fixed star topology,
// reporting per-link and aggregate rows: the contention study. The centre
// node terminates every link, so its link registry demultiplexes all queue
// traffic while the independent per-link stacks keep throughput flat across
// links at every load.
func RunNetLoad(opt Options) []Table {
	loads := []float64{0.3, 0.7, 0.99, 1.5}
	if opt.Quick {
		loads = []float64{0.7, 1.5}
	}
	const nodes, fmin, kmax = 4, 0.64, 2
	table := Table{
		ID:      "netload",
		Caption: fmt.Sprintf("Per-link load contention on a %d-node star (kmax=%d, Fmin=%.2f)", nodes, kmax, fmin),
		Columns: []string{"scenario", "f", "link", "requests", "pairs", "throughput(1/s)", "fidelity", "lat_p50(s)", "lat_p99(s)", "queue(avg)"},
	}
	var trials []Trial
	for _, sc := range scenarioList(opt) {
		for _, load := range loads {
			trials = append(trials, Trial{
				Runner:   "netload",
				Scenario: sc,
				Load:     load,
				Fidelity: fmin,
				KMax:     kmax,
			})
		}
	}
	rowGroups := runTrials(opt, trials, func(t Trial) [][]string {
		nw := netsimTrial(opt, t, netsim.Star(nodes), t.KMax)
		perLink, agg := nw.Stats()
		var rows [][]string
		for _, ls := range append(perLink, agg) {
			rows = append(rows, []string{
				string(t.Scenario),
				f3(t.Load),
				ls.Link,
				itoa(int(ls.Requests)),
				itoa(ls.Pairs),
				f3(ls.OKRate),
				f3(ls.Fidelity),
				f4(ls.LatencyP50),
				f4(ls.LatencyP99),
				f3(ls.QueueMean),
			})
		}
		return rows
	})
	for _, rows := range rowGroups {
		table.Rows = append(table.Rows, rows...)
	}
	return []Table{table}
}
