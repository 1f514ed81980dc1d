package main

import (
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/workload"
)

var linkColumns = []string{"link", "requests", "errors", "pairs", "throughput(1/s)", "fidelity", "lat_p50(s)", "lat_p90(s)", "lat_p99(s)", "queue(avg)", "queue(max)", "downs", "downtime(s)", "recover(s)"}

// linkRow renders one averaged link-layer row.
func linkRow(s netsim.LinkStats) []string {
	return []string{
		s.Link,
		fmt.Sprintf("%d", s.Requests),
		fmt.Sprintf("%d", s.Errors),
		fmt.Sprintf("%d", s.Pairs),
		fmt.Sprintf("%.3f", s.OKRate),
		fmt.Sprintf("%.4f", s.Fidelity),
		fmt.Sprintf("%.4f", s.LatencyP50),
		fmt.Sprintf("%.4f", s.LatencyP90),
		fmt.Sprintf("%.4f", s.LatencyP99),
		fmt.Sprintf("%.2f", s.QueueMean),
		fmt.Sprintf("%.0f", s.QueueMax),
		fmt.Sprintf("%d", s.Downs),
		fmt.Sprintf("%.4f", s.DowntimeSeconds),
		fmt.Sprintf("%.4f", s.RecoverySeconds),
	}
}

// printLinks prints a link-layer run: the header, the per-link and aggregate
// tables averaged over trials and the per-class SLO table.
func printLinks(w io.Writer, c *scenario.Compiled, results []trialResult) {
	cfg := c.Config
	fmt.Fprintf(w, "# netsim %s on %s: %d workload class(es) loss=%g seed=%d %.1fs simulated, %d trial(s)\n",
		c.Topology, cfg.Scenario, len(c.Classes), cfg.ClassicalLossProb, cfg.Seed, c.Seconds, c.Trials)

	// mean renders the trial average of the row pick selects.
	mean := func(pick func(trialResult) netsim.LinkStats) []string {
		rows := make([]netsim.LinkStats, len(results))
		for i, r := range results {
			rows[i] = pick(r)
		}
		return linkRow(netsim.MeanStats(rows))
	}
	perLink := experiments.Table{
		ID:      "netsim-links",
		Caption: fmt.Sprintf("Per-link performance, averaged over %d trial(s)", len(results)),
		Columns: linkColumns,
	}
	for li := range results[0].perLink {
		perLink.Rows = append(perLink.Rows, mean(func(r trialResult) netsim.LinkStats { return r.perLink[li] }))
	}
	fmt.Fprintln(w, perLink.String())

	aggregate := experiments.Table{
		ID:      "netsim-aggregate",
		Caption: fmt.Sprintf("Network aggregate, averaged over %d trial(s)", len(results)),
		Columns: linkColumns,
		Rows:    [][]string{mean(func(r trialResult) netsim.LinkStats { return r.linkAgg })},
	}
	fmt.Fprintln(w, aggregate.String())
	printSLO(w, "netsim-classes", c, results)
}

// printSLO merges the per-trial class accounts in trial order and prints the
// per-class SLO table under the given ID, if the spec has classes; the merge
// and the max folds are deterministic, so the table is identical at any
// -parallel or -shards level.
func printSLO(w io.Writer, id string, c *scenario.Compiled, results []trialResult) {
	if len(c.Classes) == 0 {
		return
	}
	merged := make([]*workload.ClassAccount, len(c.Classes))
	for i := range merged {
		merged[i] = &workload.ClassAccount{}
	}
	oldest := make([]float64, len(c.Classes))
	for _, r := range results {
		for ci, a := range r.accounts {
			merged[ci].Merge(a)
		}
		for ci, o := range r.oldest {
			oldest[ci] = max(oldest[ci], o)
		}
	}
	duration := c.Seconds * float64(len(results))
	table := experiments.Table{
		ID:      id,
		Caption: fmt.Sprintf("Per-class service levels, %d trial(s) merged", len(results)),
		Columns: workload.SLOColumns,
	}
	for _, s := range workload.BuildSLO(c.Classes, merged, oldest, duration) {
		table.Rows = append(table.Rows, s.Row())
	}
	fmt.Fprintln(w, table.String())
}

var pathColumns = []string{"path", "hops", "requests", "completed", "failed", "noroute", "reroutes", "retries", "pairs", "throughput(1/s)", "fidelity", "predicted", "swap_p50(s)", "swap_p99(s)", "e2e_p50(s)", "e2e_p99(s)", "ttp_p99(s)"}

// pathRow renders one averaged end-to-end row.
func pathRow(s network.PathStats) []string {
	return []string{
		s.Path,
		fmt.Sprintf("%d", s.Hops),
		fmt.Sprintf("%d", s.Requests),
		fmt.Sprintf("%d", s.Completed),
		fmt.Sprintf("%d", s.Failed),
		fmt.Sprintf("%d", s.NoRoute),
		fmt.Sprintf("%d", s.Reroutes),
		fmt.Sprintf("%d", s.Retries),
		fmt.Sprintf("%d", s.Pairs),
		fmt.Sprintf("%.3f", s.OKRate),
		fmt.Sprintf("%.4f", s.Fidelity),
		fmt.Sprintf("%.4f", s.Predicted),
		fmt.Sprintf("%.4f", s.SwapP50),
		fmt.Sprintf("%.4f", s.SwapP99),
		fmt.Sprintf("%.4f", s.E2EP50),
		fmt.Sprintf("%.4f", s.E2EP99),
		fmt.Sprintf("%.4f", s.TTPP99),
	}
}

// printPaths prints an end-to-end run: the header, the per-path and
// aggregate tables averaged over trials and the per-class SLO table.
func printPaths(w io.Writer, c *scenario.Compiled, results []trialResult) {
	n := len(results)
	// mean renders the trial average of the row pick selects.
	mean := func(pick func(trialResult) network.PathStats) []string {
		rows := make([]network.PathStats, n)
		for i, r := range results {
			rows[i] = pick(r)
		}
		return pathRow(network.MeanPathStats(rows))
	}
	var swaps uint64
	for _, r := range results {
		swaps += r.swaps
	}
	// One class reads as the flow's load, k_max and fidelity floor.
	traffic := fmt.Sprintf("%d workload class(es)", len(c.Classes))
	if len(c.Classes) == 1 {
		cl := c.Classes[0]
		traffic = fmt.Sprintf("load=%.2f kmax=%d Fmin=%.2f", cl.Arrival.Load, cl.MaxPairs, cl.MinFidelity)
	}
	sv := c.Service
	fmt.Fprintf(w, "# e2e %s on %s: path %s cost=%s %s gate=%g loss=%g seed=%d %.1fs simulated, %d trial(s), %d swaps total\n",
		c.Topology, c.Config.Scenario, results[0].path, sv.Cost, traffic,
		sv.SwapGateFidelity, c.Config.ClassicalLossProb, c.Config.Seed, c.Seconds, n, swaps)

	perPath := experiments.Table{
		ID:      "e2e-paths",
		Caption: fmt.Sprintf("Per-path end-to-end performance, averaged over %d trial(s)", n),
		Columns: pathColumns,
	}
	// Average over the union of paths in first-seen order: a trial whose
	// stream fired no request on a path contributes a zero row for it
	// instead of skewing the average.
	var order []string
	seen := map[string]bool{}
	for _, r := range results {
		for _, ps := range r.perPath {
			if !seen[ps.Path] {
				seen[ps.Path] = true
				order = append(order, ps.Path)
			}
		}
	}
	for _, name := range order {
		perPath.Rows = append(perPath.Rows, mean(func(r trialResult) network.PathStats {
			for _, ps := range r.perPath {
				if ps.Path == name {
					return ps
				}
			}
			return network.PathStats{Path: name}
		}))
	}
	fmt.Fprintln(w, perPath.String())

	aggregate := experiments.Table{
		ID:      "e2e-aggregate",
		Caption: fmt.Sprintf("Network aggregate, averaged over %d trial(s)", n),
		Columns: pathColumns,
		Rows:    [][]string{mean(func(r trialResult) network.PathStats { return r.pathAgg })},
	}
	fmt.Fprintln(w, aggregate.String())
	printSLO(w, "e2e-classes", c, results)
}
