package experiments

import (
	"fmt"

	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/workload"
)

// e2eTrial builds a chain network with the network layer on top, drives the
// src–dst flow with one class of Poisson NL requests at the trial's load, and
// returns the service for metric extraction. The RNG seed derives from the
// trial coordinates so results are parallelism-independent.
func e2eTrial(opt Options, t Trial, nodes int) *network.Service {
	cfg := netsim.DefaultConfig(netsim.Chain(nodes), t.Scenario)
	cfg.Seed = t.DeriveSeed(opt.Seed)
	cfg.HoldPairs = true
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: bad e2e spec: %v", err))
	}
	svc, err := network.NewService(nw, network.DefaultConfig())
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	class := workload.ClassSpec{
		Name:        "e2e",
		Priority:    egp.PriorityNL,
		Arrival:     workload.Arrival{Kind: workload.ArrivalPoisson, Load: t.Load},
		MinPairs:    1,
		MaxPairs:    t.KMax,
		MinFidelity: t.Fidelity,
	}
	if _, err := svc.AttachWorkload([]workload.ClassSpec{class}, [][2]int{{0, nodes - 1}}); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	nw.Run(sim.DurationSeconds(opt.SimulatedSeconds))
	svc.FinishAt(nw.Sim.Now())
	return svc
}

// e2eRow renders one aggregate PathStats as a table row.
func e2eRow(prefix []string, s network.PathStats) []string {
	return append(prefix,
		itoa(int(s.Requests)),
		itoa(int(s.Completed)),
		itoa(int(s.Failed)),
		itoa(s.Pairs),
		f3(s.OKRate),
		f4(s.Fidelity),
		f4(s.Predicted),
		f4(s.SwapP50),
		f4(s.E2EP50),
		f4(s.E2EP99),
	)
}

var e2eMetricColumns = []string{"requests", "completed", "failed", "pairs", "throughput(1/s)", "fidelity", "predicted", "swap_p50(s)", "e2e_p50(s)", "e2e_p99(s)"}

// RunE2EChain sweeps the repeater-chain length at fixed end-to-end load: the
// first multi-hop scaling study. Delivered fidelity falls with hop count as
// the swap composition rule dictates, and the gap between the delivered and
// predicted columns measures the storage decoherence the closed form
// ignores.
func RunE2EChain(opt Options) []Table {
	lengths := []int{3, 5, 7}
	if opt.Quick {
		lengths = []int{3, 5}
	}
	const load, fmin, kmax = 0.3, 0.35, 1
	table := Table{
		ID:      "e2echain",
		Caption: fmt.Sprintf("End-to-end repeater-chain scaling at load %.2f (Fmin=%.2f, swap-asap)", load, fmin),
		Columns: append([]string{"scenario", "nodes", "hops"}, e2eMetricColumns...),
	}
	var trials []Trial
	for _, sc := range scenarioList(opt) {
		for _, n := range lengths {
			trials = append(trials, Trial{
				Runner:   "e2echain",
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
		svc := e2eTrial(opt, t, n)
		_, agg := svc.Stats()
		return e2eRow([]string{string(t.Scenario), itoa(n), itoa(n - 1)}, agg)
	})
	return []Table{table}
}

// RunE2ELoad sweeps offered end-to-end load against the requested fidelity
// floor on a fixed 5-node (4-hop) chain: the link-quality × load trade-off.
// Higher floors force smaller bright-state populations on every hop, so both
// the sustainable load and the delivered throughput drop while fidelity
// rises.
func RunE2ELoad(opt Options) []Table {
	loads := []float64{0.15, 0.3, 0.6}
	fmins := []float64{0.35, 0.45}
	if opt.Quick {
		loads = []float64{0.3}
	}
	const nodes, kmax = 5, 1
	table := Table{
		ID:      "e2eload",
		Caption: fmt.Sprintf("End-to-end load × fidelity floor on a %d-node chain (swap-asap)", nodes),
		Columns: append([]string{"scenario", "f", "Fmin"}, e2eMetricColumns...),
	}
	var trials []Trial
	for _, sc := range scenarioList(opt) {
		for _, fmin := range fmins {
			for _, load := range loads {
				trials = append(trials, Trial{
					Runner:   "e2eload",
					Scenario: sc,
					Load:     load,
					Fidelity: fmin,
					KMax:     kmax,
					Aux:      float64(nodes),
				})
			}
		}
	}
	table.Rows = runTrials(opt, trials, func(t Trial) []string {
		svc := e2eTrial(opt, t, int(t.Aux))
		_, agg := svc.Stats()
		return e2eRow([]string{string(t.Scenario), f3(t.Load), f3(t.Fidelity)}, agg)
	})
	return []Table{table}
}
