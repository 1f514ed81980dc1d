// Command e2e runs the network layer end to end: it instantiates a topology
// of heralded quantum links, routes a source–destination pair over it with a
// selectable cost function, drives it with Poisson end-to-end entanglement
// requests, and prints per-path and aggregate performance tables (end-to-end
// throughput, delivered vs predicted fidelity, swap-latency and end-to-end
// latency percentiles).
//
// Runs are described declaratively: -scenario <file>.json loads a scenario
// spec (see internal/scenario) whose service section carries the
// source/destination pair, routing cost, swap-gate fidelity and the
// end-to-end stream; the classic flags remain as thin shims assembling the
// equivalent spec internally.
//
// Migration note: -scenario used to name only the hardware scenario (Lab or
// QL2020). Those two values still select the hardware for flag-driven runs;
// any other value is taken as the path of a scenario spec file, which then
// replaces the topology/hardware/service flags entirely (setting one of them
// alongside a spec file is an error). -seed, -seconds, -trials and -backend
// stay usable as overrides on top of a spec.
//
// Repetitions (-trials) fan out across a worker pool (-parallel); each trial
// derives its seed from the base seed and its index, so the printed tables
// are byte-identical at every parallelism level.
//
// Examples:
//
//	e2e -nodes 5                                   # 4-hop repeater chain
//	e2e -nodes 7 -fmin 0.45 -seconds 4             # longer chain, higher floor
//	e2e -topology grid -nodes 9 -src 0 -dst 8      # corner-to-corner grid
//	e2e -scenario scenarios/e2e-chain5.json -parallel 4
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/wire"
)

// trialStats holds one trial's per-path rows plus the aggregate row.
type trialStats struct {
	perPath []network.PathStats
	agg     network.PathStats
	swaps   uint64
	path    string
	end     sim.Time
}

// runTrial builds and runs one network + service from the compiled scenario
// with a trial-derived seed. trace and registry (normally non-nil only for
// trial 0) attach the observability layer; they never change the simulated
// trajectory.
func runTrial(c *scenario.Compiled, trial int, trace *obs.Tracer, registry *obs.Registry) (trialStats, error) {
	sv := c.Service
	cfg := c.Config
	cfg.Seed = experiments.DeriveSeed(c.Config.Seed, uint64(trial))
	cfg.Trace = trace
	cfg.Metrics = registry
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		return trialStats{}, err
	}
	ncfg := network.DefaultConfig()
	ncfg.SwapGateFidelity = sv.SwapGateFidelity
	ncfg.Trace = trace
	ncfg.Metrics = registry
	costFn, ok := network.CostByName(nw, sv.Cost)
	if !ok {
		return trialStats{}, fmt.Errorf("unknown cost %q (hops|fidelity|rate)", sv.Cost)
	}
	ncfg.Cost = costFn
	svc, err := network.NewService(nw, ncfg)
	if err != nil {
		return trialStats{}, err
	}
	if c.Faults != nil {
		if err := c.Faults.Schedule(nw); err != nil {
			return trialStats{}, err
		}
	}
	p, err := svc.Router().Path(sv.Src, sv.Dst)
	if err != nil {
		return trialStats{}, err
	}
	if sv.StandingPairs > 0 {
		if _, code := svc.Create(network.CreateRequest{
			SrcNode:     sv.Src,
			DstNode:     sv.Dst,
			NumPairs:    sv.StandingPairs,
			MinFidelity: sv.Traffic.MinFidelity,
		}); code != wire.ErrNone {
			return trialStats{}, fmt.Errorf("standing end-to-end request rejected: %s", code)
		}
	}
	tr := svc.AttachTraffic(sv.Traffic)
	tr.Start()
	nw.Run(sim.DurationSeconds(c.Seconds))
	svc.FinishAt(nw.Sim.Now())
	perPath, agg := svc.Stats()
	return trialStats{perPath: perPath, agg: agg, swaps: svc.Swaps(), path: p.String(), end: nw.Sim.Now()}, nil
}

// statsRow renders one averaged row.
func statsRow(s network.PathStats) []string {
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

var statsColumns = []string{"path", "hops", "requests", "completed", "failed", "noroute", "reroutes", "retries", "pairs", "throughput(1/s)", "fidelity", "predicted", "swap_p50(s)", "swap_p99(s)", "e2e_p50(s)", "e2e_p99(s)", "ttp_p99(s)"}

// fail prints to stderr and exits with a usage error.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func main() {
	var (
		topology = flag.String("topology", "chain", "topology: chain|star|grid|edges")
		nodes    = flag.Int("nodes", 5, "node count (grid requires a perfect square)")
		edgeList = flag.String("edges", "", "explicit edge list for -topology edges, e.g. 0-1,1-2,2-0")
		scen     = flag.String("scenario", "Lab", "hardware scenario (Lab or QL2020), or the path of a declarative scenario spec file with a service section")
		src      = flag.Int("src", 0, "source node of the end-to-end pair stream")
		dst      = flag.Int("dst", -1, "destination node (default: last node)")
		cost     = flag.String("cost", "hops", "routing cost function: hops|fidelity|rate")
		load     = flag.Float64("load", 0.3, "offered end-to-end load fraction of the bottleneck link rate")
		kmax     = flag.Int("kmax", 1, "maximum end-to-end pairs per request")
		fmin     = flag.Float64("fmin", 0.35, "end-to-end minimum delivered fidelity")
		deadline = flag.Float64("deadline", 0, "per-request deadline in seconds (0 = none)")
		gate     = flag.Float64("gate", 1, "swap (Bell-state measurement) gate fidelity at repeater nodes")
		loss     = flag.Float64("loss", 0, "classical per-frame loss probability")
		seed     = flag.Int64("seed", 1, "base random seed")
		seconds  = flag.Float64("seconds", 2, "simulated seconds per trial")
		trials   = flag.Int("trials", 3, "independent repetitions (seeds derived from -seed)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines across trials (tables are identical at any level)")

		shared = cli.Register(flag.CommandLine, cli.Config{})
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
			Engine:   &scenario.Engine{Seed: *seed},
			Protocol: &scenario.Protocol{ClassicalLoss: *loss},
			Run:      &scenario.Run{Seconds: *seconds, Trials: *trials},
			Service: &scenario.Service{
				Src:              *src,
				Dst:              dst,
				Cost:             *cost,
				SwapGateFidelity: *gate,
				Load:             *load,
				MaxPairs:         *kmax,
				MinFidelity:      *fmin,
				DeadlineS:        *deadline,
			},
		}
		c, err := sp.Compile()
		if err != nil {
			fail(err)
		}
		compiled = c
	default:
		// Spec-file run: the file is authoritative for topology, hardware and
		// service; engine/run flags act as explicit overrides.
		for _, name := range []string{"topology", "nodes", "edges", "src", "dst", "cost", "load", "kmax", "fmin", "deadline", "gate", "loss"} {
			if visited[name] {
				fail(fmt.Errorf("-%s conflicts with -scenario %s: set it in the spec file", name, *scen))
			}
		}
		sp, err := scenario.Load(*scen)
		if err != nil {
			fail(err)
		}
		if sp.Service == nil {
			fail(fmt.Errorf("scenario %q has no service section; e2e runs end-to-end specs only (use netsim for link-layer specs)", sp.Name))
		}
		if visited["seed"] {
			if sp.Engine == nil {
				sp.Engine = &scenario.Engine{}
			}
			sp.Engine.Seed = *seed
		}
		if visited["backend"] {
			if sp.Hardware == nil {
				sp.Hardware = &scenario.Hardware{}
			}
			sp.Hardware.Backend = *shared.Backend
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

	// Observability attaches to trial 0 only: the remaining trials stay on
	// the uninstrumented production path (tracing would not change their
	// trajectory either way, but one recorded trial is all the files need).
	tracer, registry := shared.Observability()
	stopCPU, err := shared.StartCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

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

	var swaps uint64
	for _, r := range results {
		swaps += r.swaps
	}
	sv := compiled.Service
	fmt.Printf("# e2e %s on %s: path %s cost=%s load=%.2f kmax=%d Fmin=%.2f gate=%g loss=%g seed=%d %.1fs simulated, %d trial(s), %d swaps total\n",
		compiled.Topology, compiled.Config.Scenario, results[0].path, sv.Cost, sv.Traffic.Load, sv.Traffic.MaxPairs, sv.Traffic.MinFidelity,
		sv.SwapGateFidelity, compiled.Config.ClassicalLossProb, compiled.Config.Seed, compiled.Seconds, nTrials, swaps)

	perPath := experiments.Table{
		ID:      "e2e-paths",
		Caption: fmt.Sprintf("Per-path end-to-end performance, averaged over %d trial(s)", nTrials),
		Columns: statsColumns,
	}
	// Collect the union of paths across trials in first-seen order: a trial
	// whose Poisson stream fired no request contributes a zero row for the
	// missing path instead of skewing the average.
	var pathOrder []string
	seen := map[string]bool{}
	for _, r := range results {
		for _, ps := range r.perPath {
			if !seen[ps.Path] {
				seen[ps.Path] = true
				pathOrder = append(pathOrder, ps.Path)
			}
		}
	}
	for _, name := range pathOrder {
		rows := make([]network.PathStats, nTrials)
		for ti := range results {
			rows[ti] = network.PathStats{Path: name}
			for _, ps := range results[ti].perPath {
				if ps.Path == name {
					rows[ti] = ps
					break
				}
			}
		}
		perPath.Rows = append(perPath.Rows, statsRow(network.MeanPathStats(rows)))
	}
	fmt.Println(perPath.String())

	aggRows := make([]network.PathStats, nTrials)
	for ti := range results {
		aggRows[ti] = results[ti].agg
	}
	aggregate := experiments.Table{
		ID:      "e2e-aggregate",
		Caption: fmt.Sprintf("Network aggregate, averaged over %d trial(s)", nTrials),
		Columns: statsColumns,
		Rows:    [][]string{statsRow(network.MeanPathStats(aggRows))},
	}
	fmt.Println(aggregate.String())
}
