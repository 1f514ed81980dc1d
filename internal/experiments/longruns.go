package experiments

import (
	"fmt"

	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/workload"
)

// RunSection62Metrics reproduces the single-kind performance metrics of
// Section 6.2: average fidelity, throughput, scaled latency, queue length
// and origin fairness for the grid of {scenario} × {kind} × {load} × {kmax}
// scenarios (a scaled-down version of the paper's 169-scenario campaign).
func RunSection62Metrics(opt Options) []Table {
	loads := []workload.LoadLevel{workload.LoadLow, workload.LoadHigh, workload.LoadUltra}
	kmaxes := []int{1, 3}
	if opt.Quick {
		loads = []workload.LoadLevel{workload.LoadHigh}
		kmaxes = []int{3}
	}

	perf := Table{
		ID:      "sec6.2",
		Caption: "Single-kind performance metrics (Sec. 6.2): fidelity, throughput, scaled latency",
		Columns: []string{"scenario", "kind", "load", "kmax", "F_avg", "QBER_F", "throughput(1/s)", "scaled_latency(s)", "queue_len", "pairs"},
	}
	fairness := Table{
		ID:      "sec6.2-fairness",
		Caption: "Fairness: relative differences between requests originating at A and at B (Sec. 6.2)",
		Columns: []string{"scenario", "kind", "load", "RelDiff_fidelity", "RelDiff_throughput", "RelDiff_latency", "RelDiff_OKs"},
	}

	var trials []Trial
	for _, scenario := range scenarioList(opt) {
		for _, priority := range priorityOrder {
			for _, load := range loads {
				for _, kmax := range kmaxes {
					trials = append(trials, Trial{
						Runner:   "metrics",
						Scenario: scenario,
						Priority: priority,
						Load:     float64(load),
						KMax:     kmax,
					})
				}
			}
		}
	}
	lastKMax := kmaxes[len(kmaxes)-1]
	type metricRows struct {
		perf     []string
		fairness []string // nil unless this trial reports fairness
	}
	rows := runTrials(opt, trials, func(t Trial) metricRows {
		classes := workload.SingleKind(t.Priority, workload.LoadLevel(t.Load), t.KMax)
		stats := runProtocolTrial(opt, t, classes, nil)

		qberFid := 0.0
		if q := &stats.qber[t.Priority]; q.Samples() > 0 {
			qberFid = q.FidelityEstimate()
		}
		out := metricRows{perf: []string{
			string(t.Scenario),
			egp.PriorityName(t.Priority),
			workload.LoadLevel(t.Load).String(),
			itoa(t.KMax),
			f3(stats.Fidelity(t.Priority).Mean()),
			f3(qberFid),
			f3(stats.Throughput(t.Priority)),
			f3(stats.ScaledLatency(t.Priority).Mean()),
			f3(stats.QueueLength().Mean()),
			itoa(stats.Pairs(t.Priority)),
		}}
		if t.KMax == lastKMax {
			rep := originFairness(stats.Origin("A"), stats.Origin("B"), stats.DurationSeconds())
			out.fairness = []string{
				string(t.Scenario),
				egp.PriorityName(t.Priority),
				workload.LoadLevel(t.Load).String(),
				f3(rep.fidelity),
				f3(rep.throughput),
				f3(rep.latency),
				f3(rep.pairs),
			}
		}
		return out
	})
	for _, r := range rows {
		perf.Rows = append(perf.Rows, r.perf)
		if r.fairness != nil {
			fairness.Rows = append(fairness.Rows, r.fairness)
		}
	}
	return []Table{perf, fairness}
}

// RunTable1Scheduling reproduces Section 6.3 / Table 1 and the behaviour of
// Figure 7: throughput and scaled latency per request kind under FCFS vs the
// strict-priority + weighted-fair-queuing scheduler, for the two request
// patterns of Table 1 on QL2020 (pairs per request 2/2/10).
func RunTable1Scheduling(opt Options) []Table {
	scenario := scenarioList(opt)[len(scenarioList(opt))-1]
	schedulers := []string{"FCFS", "HigherWFQ"}
	patterns := []struct {
		name    string
		uniform bool
	}{
		{"(i) uniform", true},
		{"(ii) noNL-moreMD", false},
	}
	throughput := Table{
		ID:      "table1-T",
		Caption: "Throughput (1/s) per kind, FCFS vs WFQ (Table 1, top)",
		Columns: []string{"pattern", "scheduler", "NL", "CK", "MD", "total"},
	}
	latency := Table{
		ID:      "table1-SL",
		Caption: "Scaled latency (s) per kind, FCFS vs WFQ (Table 1, bottom)",
		Columns: []string{"pattern", "scheduler", "NL", "CK", "MD"},
	}
	type table1Case struct {
		name    string
		sched   string
		uniform bool
	}
	var cases []trialCase[table1Case]
	for _, pat := range patterns {
		for _, sched := range schedulers {
			cases = append(cases, trialCase[table1Case]{
				trial: Trial{
					Runner:   "table1",
					Scenario: scenario,
					Variant:  pat.name + "/" + sched,
				},
				ctx: table1Case{name: pat.name, sched: sched, uniform: pat.uniform},
			})
		}
	}
	type schedRows struct {
		throughput []string
		latency    []string
	}
	rows := runTrialCases(opt, cases, func(t Trial, c table1Case) schedRows {
		classes := workload.Table1Pattern(c.uniform)
		stats := runProtocolTrial(opt, t, classes, func(cfg *netsim.Config) {
			cfg.Scheduler = c.sched
		})

		row := []string{c.name, c.sched}
		total := 0.0
		for _, priority := range priorityOrder {
			th := stats.Throughput(priority)
			total += th
			if !c.uniform && priority == egp.PriorityNL {
				row = append(row, "-")
				continue
			}
			row = append(row, f3(th))
		}
		row = append(row, f3(total))

		lrow := []string{c.name, c.sched}
		for _, priority := range priorityOrder {
			if !c.uniform && priority == egp.PriorityNL {
				lrow = append(lrow, "-")
				continue
			}
			lrow = append(lrow, fmt.Sprintf("%.3f (%.3f)",
				stats.ScaledLatency(priority).Mean(),
				stats.ScaledLatency(priority).StdErr()))
		}
		return schedRows{throughput: row, latency: lrow}
	})
	for _, r := range rows {
		throughput.Rows = append(throughput.Rows, r.throughput)
		latency.Rows = append(latency.Rows, r.latency)
	}
	return []Table{throughput, latency}
}

// RunMixed reproduces Appendix Tables 3 and 4 from one set of trials: for
// the mixed-usage patterns of Appendix Table 2 under FCFS and HigherWFQ, on
// both hardware scenarios, throughput per kind (Table 3) and scaled latency
// and request latency per kind (Table 4).
func RunMixed(opt Options) []Table {
	patterns := workload.AllPatterns()
	if opt.Quick {
		patterns = []workload.Pattern{workload.PatternUniform, workload.PatternNoNLMoreMD}
	}
	schedulers := []string{"FCFS", "HigherWFQ"}

	throughput := Table{
		ID:      "table3",
		Caption: "Mixed-load average throughput (1/s) per kind (App. Table 3)",
		Columns: []string{"scenario", "T_NL", "T_CK", "T_MD"},
	}
	latency := Table{
		ID:      "table4",
		Caption: "Mixed-load scaled latency SL and request latency RL (s) per kind (App. Table 4)",
		Columns: []string{"scenario", "SL_NL", "SL_CK", "SL_MD", "RL_NL", "RL_CK", "RL_MD"},
	}

	type mixedCase struct {
		pattern workload.Pattern
		sched   string
	}
	var cases []trialCase[mixedCase]
	for _, scenario := range scenarioList(opt) {
		for _, pattern := range patterns {
			for _, sched := range schedulers {
				cases = append(cases, trialCase[mixedCase]{
					trial: Trial{
						Runner:   "mixed",
						Scenario: scenario,
						Variant:  string(pattern) + "/" + sched,
					},
					ctx: mixedCase{pattern: pattern, sched: sched},
				})
			}
		}
	}
	type mixedRows struct {
		throughput []string
		latency    []string
	}
	rows := runTrialCases(opt, cases, func(t Trial, c mixedCase) mixedRows {
		classes := workload.Mixed(c.pattern)
		stats := runProtocolTrial(opt, t, classes, func(cfg *netsim.Config) {
			cfg.Scheduler = c.sched
		})

		name := fmt.Sprintf("%s_%s_%s", t.Scenario, c.pattern, c.sched)
		hasNL := c.pattern != workload.PatternNoNLMoreCK && c.pattern != workload.PatternNoNLMoreMD
		meanErr := func(s *obs.Series) string { return fmt.Sprintf("%.2f (%.2f)", s.Mean(), s.StdErr()) }
		out := mixedRows{throughput: []string{name}, latency: []string{name}}
		var requestLatency []string
		for _, priority := range priorityOrder {
			if priority == egp.PriorityNL && !hasNL {
				out.throughput = append(out.throughput, "-")
				out.latency = append(out.latency, "-")
				requestLatency = append(requestLatency, "-")
				continue
			}
			out.throughput = append(out.throughput, f3(stats.Throughput(priority)))
			out.latency = append(out.latency, meanErr(stats.ScaledLatency(priority)))
			requestLatency = append(requestLatency, meanErr(stats.RequestLatency(priority)))
		}
		out.latency = append(out.latency, requestLatency...)
		return out
	})
	for _, r := range rows {
		throughput.Rows = append(throughput.Rows, r.throughput)
		latency.Rows = append(latency.Rows, r.latency)
	}
	return []Table{throughput, latency}
}
