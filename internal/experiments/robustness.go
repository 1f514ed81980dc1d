package experiments

import (
	"repro/internal/egp"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/workload"
)

// robustnessRun captures the metrics of one robustness scenario.
type robustnessRun struct {
	fidelity   float64
	throughput float64
	latency    float64
	pairs      int
	expires    int
}

// RunTable5Robustness reproduces Section 6.1 / Table 5: the protocol is run
// under artificially inflated classical frame-loss probabilities and the
// relative differences of fidelity, throughput, scaled latency and delivered
// pair count against the loss-free baseline are reported, maximised over the
// three request kinds.
func RunTable5Robustness(opt Options) []Table {
	losses := []float64{1e-10, 1e-8, 1e-6, 1e-5, 1e-4}
	if opt.Quick {
		losses = []float64{1e-6, 1e-4}
	}
	kinds := priorityOrder
	if opt.Quick {
		kinds = []int{egp.PriorityMD}
	}
	scenario := nv.ScenarioLab

	// One trial per (loss, kind), with the loss-free baselines first. The
	// loss probability is deliberately kept out of the trial coordinates:
	// baseline and lossy runs of the same kind must share one RNG stream
	// (common random numbers) so the relative differences isolate the effect
	// of the frame loss itself.
	allLosses := append([]float64{0}, losses...)
	var cases []trialCase[float64]
	for _, loss := range allLosses {
		for _, priority := range kinds {
			cases = append(cases, trialCase[float64]{
				trial: Trial{
					Runner:   "table5",
					Scenario: scenario,
					Priority: priority,
					Load:     0.99,
					Fidelity: 0.64,
					KMax:     3,
				},
				ctx: loss,
			})
		}
	}
	results := runTrialCases(opt, cases, func(t Trial, loss float64) robustnessRun {
		classes := []workload.Class{{
			Priority:    t.Priority,
			Fraction:    t.Load,
			MaxPairs:    t.KMax,
			MinFidelity: t.Fidelity,
		}}
		stats := runProtocolTrial(opt, t, classes, func(cfg *netsim.Config) {
			cfg.ClassicalLossProb = loss
		})
		return robustnessRun{
			fidelity:   stats.Fidelity(t.Priority).Mean(),
			throughput: stats.Throughput(t.Priority),
			latency:    stats.ScaledLatency(t.Priority).Mean(),
			pairs:      stats.OKCount(t.Priority),
			expires:    stats.ExpireCount(),
		}
	})

	baselines := make(map[int]robustnessRun)
	for i, priority := range kinds {
		baselines[priority] = results[i]
	}

	table := Table{
		ID:      "table5",
		Caption: "Max relative difference vs loss-free baseline under inflated classical frame loss (Table 5)",
		Columns: []string{"p_loss", "RelDiff_fidelity", "RelDiff_throughput", "RelDiff_latency", "RelDiff_pairs", "expires"},
	}
	for li, loss := range losses {
		var maxFid, maxTh, maxLat, maxPairs float64
		expires := 0
		for ki, priority := range kinds {
			base := baselines[priority]
			lossy := results[(li+1)*len(kinds)+ki]
			maxFid = maxF(maxFid, metrics.RelativeDifference(base.fidelity, lossy.fidelity))
			maxTh = maxF(maxTh, metrics.RelativeDifference(base.throughput, lossy.throughput))
			maxLat = maxF(maxLat, metrics.RelativeDifference(base.latency, lossy.latency))
			maxPairs = maxF(maxPairs, metrics.RelativeDifference(float64(base.pairs), float64(lossy.pairs)))
			expires += lossy.expires
		}
		table.Rows = append(table.Rows, []string{
			formatSci(loss), f3(maxFid), f3(maxTh), f3(maxLat), f3(maxPairs), itoa(expires),
		})
	}
	return []Table{table}
}

func maxF(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}
