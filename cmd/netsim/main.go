// Command netsim runs the multi-link network layer: it instantiates a
// topology (chain, star, grid or an explicit edge list) of heralded quantum
// links on one deterministic simulator, drives every link with the
// configured traffic, and prints per-link and aggregate performance tables
// (throughput, fidelity, latency percentiles, queue occupancy) — plus a
// per-class SLO table when the workload has traffic classes.
//
// Runs are described declaratively: -scenario <file>.json loads a scenario
// spec (see internal/scenario and the committed scenarios/ library) carrying
// topology, hardware, engine, protocol and traffic. The classic topology and
// traffic flags (-topology/-nodes/-edges/-load/-kmax/-fmin/-keep/...) remain
// as thin shims that assemble the equivalent spec internally and produce
// byte-identical tables; prefer spec files for anything kept under version
// control.
//
// Migration note: -scenario used to name only the hardware scenario (Lab or
// QL2020). Those two values still select the hardware for flag-driven runs;
// any other value is taken as the path of a scenario spec file, which then
// replaces the topology/hardware/protocol/traffic flags entirely (setting
// one of them alongside a spec file is an error). -seed, -seconds, -trials,
// -shards and -backend stay usable as overrides on top of a spec.
//
// Repetitions (-trials) fan out across a worker pool (-parallel); each trial
// derives its seed from the base seed and its index, so the printed tables
// are byte-identical at every parallelism level.
//
// Examples:
//
//	netsim -topology chain -nodes 8
//	netsim -topology grid -nodes 9 -load 0.99 -seconds 2
//	netsim -scenario scenarios/chain8-mixed-classes.json -parallel 4
//	netsim -scenario scenarios/chain16-bench.json -shards 4
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// trialStats holds one trial's per-link rows, the aggregate row and (for
// class workloads) the per-class accounts.
type trialStats struct {
	perLink  []netsim.LinkStats
	agg      netsim.LinkStats
	end      sim.Time
	accounts []*workload.ClassAccount
	oldest   []float64
}

// runTrial builds and runs one network from the compiled scenario with a
// trial-derived seed. trace and registry (normally non-nil only for trial 0)
// attach the observability layer; they never change the simulated
// trajectory.
func runTrial(c *scenario.Compiled, trial int, trace *obs.Tracer, registry *obs.Registry) (trialStats, error) {
	cfg := c.Config
	cfg.Seed = experiments.DeriveSeed(c.Config.Seed, uint64(trial))
	cfg.Trace = trace
	cfg.Metrics = registry
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		return trialStats{}, err
	}
	mt, err := c.Attach(nw)
	if err != nil {
		return trialStats{}, err
	}
	nw.Run(sim.DurationSeconds(c.Seconds))
	perLink, agg := nw.Stats()
	st := trialStats{perLink: perLink, agg: agg, end: nw.Sim.Now()}
	if mt != nil {
		st.accounts = mt.Accounts()
		st.oldest = mt.OldestWaits()
	}
	return st, nil
}

// statsRow renders one averaged row.
func statsRow(s netsim.LinkStats) []string {
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

var statsColumns = []string{"link", "requests", "errors", "pairs", "throughput(1/s)", "fidelity", "lat_p50(s)", "lat_p90(s)", "lat_p99(s)", "queue(avg)", "queue(max)", "downs", "downtime(s)", "recover(s)"}

// fail prints to stderr and exits with a usage error.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func main() {
	var (
		topology  = flag.String("topology", "chain", "topology: chain|star|grid|dragonfly|edges")
		nodes     = flag.Int("nodes", 8, "node count (grid requires a perfect square)")
		edgeList  = flag.String("edges", "", "explicit edge list for -topology edges, e.g. 0-1,1-2,2-0")
		scen      = flag.String("scenario", "Lab", "hardware scenario (Lab or QL2020), or the path of a declarative scenario spec file that replaces the topology/traffic flags")
		scheduler = flag.String("scheduler", "FCFS", "per-link EGP scheduler: FCFS, LowerWFQ or HigherWFQ")
		load      = flag.Float64("load", 0.7, "per-link offered load fraction f")
		kmax      = flag.Int("kmax", 2, "maximum pairs per request")
		fmin      = flag.Float64("fmin", 0.64, "requested minimum fidelity")
		keep      = flag.Bool("keep", false, "issue create-and-keep (K) requests instead of measure-directly (M)")
		loss      = flag.Float64("loss", 0, "classical per-frame loss probability")
		seed      = flag.Int64("seed", 1, "base random seed")
		seconds   = flag.Float64("seconds", 1, "simulated seconds per trial")
		trials    = flag.Int("trials", 3, "independent repetitions (seeds derived from -seed)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines across trials (tables are identical at any level)")

		shared = cli.Register(flag.CommandLine, cli.Config{ShardsHelp: cli.ShardsTablesHelp})
	)
	flag.Parse()

	visited := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { visited[f.Name] = true })

	if *trials <= 0 {
		*trials = 1
	}

	var compiled *scenario.Compiled
	switch *scen {
	case "Lab", "QL2020":
		// Flag-driven run: assemble the equivalent spec and compile it, so
		// both paths share one runner and one semantics.
		sp := &scenario.Spec{
			Name:     "cli",
			Topology: scenario.Topology{Kind: *topology, Nodes: *nodes, Edges: *edgeList},
			Hardware: &scenario.Hardware{Scenario: *scen, Backend: *shared.Backend},
			Engine:   &scenario.Engine{Seed: *seed, Shards: *shared.Shards},
			Protocol: &scenario.Protocol{Scheduler: *scheduler, ClassicalLoss: *loss},
			Run:      &scenario.Run{Seconds: *seconds, Trials: *trials},
			Traffic: &scenario.Traffic{Poisson: &scenario.Poisson{
				Load:        *load,
				MaxPairs:    *kmax,
				MinFidelity: *fmin,
				Keep:        *keep,
			}},
		}
		c, err := sp.Compile()
		if err != nil {
			fail(err)
		}
		compiled = c
	default:
		// Spec-file run: the file is authoritative for topology, hardware,
		// protocol and traffic; engine/run flags act as explicit overrides.
		for _, name := range []string{"topology", "nodes", "edges", "scheduler", "load", "kmax", "fmin", "keep", "loss"} {
			if visited[name] {
				fail(fmt.Errorf("-%s conflicts with -scenario %s: set it in the spec file", name, *scen))
			}
		}
		sp, err := scenario.Load(*scen)
		if err != nil {
			fail(err)
		}
		if visited["seed"] {
			if sp.Engine == nil {
				sp.Engine = &scenario.Engine{}
			}
			sp.Engine.Seed = *seed
		}
		if visited["backend"] || visited["shards"] {
			if sp.Engine == nil {
				sp.Engine = &scenario.Engine{}
			}
			if visited["backend"] {
				sp.Hardware.Backend = *shared.Backend
			}
			if visited["shards"] {
				sp.Engine.Shards = *shared.Shards
			}
		}
		if visited["seconds"] || visited["trials"] {
			if sp.Run == nil {
				sp.Run = &scenario.Run{}
			}
			if visited["seconds"] {
				sp.Run.Seconds = *seconds
			}
			if visited["trials"] {
				sp.Run.Trials = *trials
			}
		}
		c, err := sp.Compile()
		if err != nil {
			fail(err)
		}
		compiled = c
	}
	if *parallel <= 0 {
		*parallel = 1
	}

	// Observability attaches to trial 0 only; the remaining trials stay on
	// the uninstrumented production path.
	tracer, registry := shared.Observability()
	stopCPU, err := shared.StartCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Fan the trials out over the worker pool; results land at their own
	// index so the aggregation below is order-independent.
	nTrials := compiled.Trials
	results := make([]trialStats, nTrials)
	errs := make([]error, nTrials)
	experiments.RunIndexed(nTrials, *parallel, func(i int) {
		var tr *obs.Tracer
		var reg *obs.Registry
		if i == 0 {
			tr, reg = tracer, registry
		}
		results[i], errs[i] = runTrial(compiled, i, tr, reg)
	})
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	stopCPU()
	if err := shared.WriteArtifacts(tracer, registry, results[0].end); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	printHeader(compiled)

	perLink := experiments.Table{
		ID:      "netsim-links",
		Caption: fmt.Sprintf("Per-link performance, averaged over %d trial(s)", nTrials),
		Columns: statsColumns,
	}
	for li := range results[0].perLink {
		rows := make([]netsim.LinkStats, nTrials)
		for ti := range results {
			rows[ti] = results[ti].perLink[li]
		}
		perLink.Rows = append(perLink.Rows, statsRow(netsim.MeanStats(rows)))
	}
	fmt.Println(perLink.String())

	aggRows := make([]netsim.LinkStats, nTrials)
	for ti := range results {
		aggRows[ti] = results[ti].agg
	}
	aggregate := experiments.Table{
		ID:      "netsim-aggregate",
		Caption: fmt.Sprintf("Network aggregate, averaged over %d trial(s)", nTrials),
		Columns: statsColumns,
		Rows:    [][]string{statsRow(netsim.MeanStats(aggRows))},
	}
	fmt.Println(aggregate.String())

	// A poisson section is one class too, but flag-era runs print no SLO
	// table: only a spec's classes section asks for one.
	if t := compiled.Spec.Traffic; t != nil && len(t.Classes) > 0 {
		printSLO(compiled, results)
	}
}

// printHeader summarises the run; the wording for runs of a spec's poisson
// section (every flag-driven run) matches the historical flag-era header
// byte for byte.
func printHeader(c *scenario.Compiled) {
	cfg := c.Config
	if t := c.Spec.Traffic; t != nil && t.Poisson != nil {
		p := c.Classes[0]
		kind := "M"
		if p.Keep() {
			kind = "K"
		}
		fmt.Printf("# netsim %s on %s: load=%.2f kind=%s kmax=%d Fmin=%.2f loss=%g seed=%d %.1fs simulated, %d trial(s)\n",
			c.Topology, cfg.Scenario, p.Arrival.Load, kind, p.MaxPairs, p.MinFidelity, cfg.ClassicalLossProb, cfg.Seed, c.Seconds, c.Trials)
		return
	}
	fmt.Printf("# netsim %s on %s: %d workload class(es) loss=%g seed=%d %.1fs simulated, %d trial(s)\n",
		c.Topology, cfg.Scenario, len(c.Classes), cfg.ClassicalLossProb, cfg.Seed, c.Seconds, c.Trials)
}

// printSLO merges the per-trial class accounts in trial order and prints the
// per-class SLO table; the merge and the max folds are deterministic, so the
// table is identical at any -parallel or -shards level.
func printSLO(c *scenario.Compiled, results []trialStats) {
	merged := make([]*workload.ClassAccount, len(c.Classes))
	for i := range merged {
		merged[i] = &workload.ClassAccount{}
	}
	oldest := make([]float64, len(c.Classes))
	for _, r := range results {
		for ci, a := range r.accounts {
			merged[ci].Merge(a)
		}
		for ci, w := range r.oldest {
			if w > oldest[ci] {
				oldest[ci] = w
			}
		}
	}
	duration := c.Seconds * float64(len(results))
	table := experiments.Table{
		ID:      "netsim-classes",
		Caption: fmt.Sprintf("Per-class service levels, %d trial(s) merged", len(results)),
		Columns: workload.SLOColumns,
	}
	for _, s := range workload.BuildSLO(c.Classes, merged, oldest, duration) {
		table.Rows = append(table.Rows, s.Row())
	}
	fmt.Println(table.String())
}
