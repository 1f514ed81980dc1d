package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// overrides are the run flags that replace a spec's own engine and run
// values; set names the flags given on the command line.
type overrides struct {
	seed    int64
	seconds float64
	trials  int
	shards  int
	set     map[string]bool
}

// apply writes the explicitly set overrides into sp, creating a missing
// engine or run section first (an empty section compiles like an absent
// one), and rejects a non-positive -seconds or -trials (the spec would read
// zero as "use the default").
func (o overrides) apply(sp *scenario.Spec) error {
	if o.set["seconds"] && o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	if o.set["trials"] && o.trials <= 0 {
		return fmt.Errorf("-trials must be positive, got %d", o.trials)
	}
	if sp.Engine == nil {
		sp.Engine = &scenario.Engine{}
	}
	if sp.Run == nil {
		sp.Run = &scenario.Run{}
	}
	if o.set["seed"] {
		sp.Engine.Seed = o.seed
	}
	if o.set["shards"] {
		sp.Engine.Shards = o.shards
	}
	if o.set["seconds"] {
		sp.Run.Seconds = o.seconds
	}
	if o.set["trials"] {
		sp.Run.Trials = o.trials
	}
	return nil
}

// runSpec is `repro run`: load one spec, apply the overrides, fan the trials
// out, write the observability artifacts of trial 0 and print the tables.
func runSpec(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("run", stderr)
	var o overrides
	fs.Int64Var(&o.seed, "seed", 0, "base random seed (overrides engine.seed)")
	fs.Float64Var(&o.seconds, "seconds", 0, "simulated seconds per trial (overrides run.seconds)")
	fs.IntVar(&o.trials, "trials", 0, "independent repetitions, seeds derived from the base seed (overrides run.trials)")
	fs.IntVar(&o.shards, "shards", 0, "worker shards of the simulation engine, <=1 serial (overrides engine.shards; tables are identical at any count)")
	parallel := fs.Int("parallel", 0, "worker goroutines across trials, <=0 one per CPU (tables are identical at any level)")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON flight recording of trial 0 to this file (view in ui.perfetto.dev)")
	traceCap := fs.Int("tracecap", 1<<16, "per-ring record capacity of the flight recorder (rounded up to a power of two)")
	metricsOut := fs.String("metrics", "", "write a JSON metrics snapshot of trial 0 to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile taken at exit to this file")
	pos, err := parse(fs, args)
	if err != nil {
		return parseExit(err)
	}
	if len(pos) != 1 {
		fmt.Fprintf(stderr, "repro run: want one spec file, got %d\n%s", len(pos), usage)
		return 2
	}
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })

	sp, err := scenario.Load(pos[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := o.apply(sp); err != nil {
		fmt.Fprintf(stderr, "repro run: %v\n", err)
		return 2
	}
	c, err := sp.Compile()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	// A -shards above the node count, as in a loop over every spec, runs
	// one shard per node; the tables are identical at any count. The spec's
	// own engine.shards gets no such cap.
	if o.set["shards"] && c.Config.Shards > c.Config.Spec.Nodes {
		fmt.Fprintf(stderr, "repro run: -shards %d capped at the spec's %d nodes\n", o.shards, c.Config.Spec.Nodes)
		c.Config.Shards = c.Config.Spec.Nodes
	}

	// Observability attaches to trial 0 only; the remaining trials stay on
	// the uninstrumented production path.
	var tracer *obs.Tracer
	var registry *obs.Registry
	if *traceOut != "" {
		tracer = obs.NewTracer(c.Config.Shards, *traceCap)
	}
	if *metricsOut != "" {
		registry = obs.NewRegistry()
	}
	stopCPU, err := startCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// Results land at their own index, so the tables below do not depend on
	// the order in which the workers finish.
	results := make([]trialResult, c.Trials)
	errs := make([]error, c.Trials)
	experiments.RunIndexed(c.Trials, *parallel, func(i int) {
		if i == 0 {
			results[i], errs[i] = runTrial(c, i, tracer, registry)
		} else {
			results[i], errs[i] = runTrial(c, i, nil, nil)
		}
	})
	stopCPU()
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if n := tracer.Dropped(); n > 0 {
		fmt.Fprintf(stderr, "note: trace rings overwrote %d records; raise -tracecap for a longer window\n", n)
	}
	if err := errors.Join(
		writeFile(*traceOut, tracer.WriteChrome),
		writeFile(*metricsOut, registry.Snapshot(results[0].end).WriteJSON),
		writeFile(*memProfile, func(w io.Writer) error {
			runtime.GC() // the profile then reflects live memory
			return pprof.WriteHeapProfile(w)
		}),
	); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if c.Service != nil {
		printPaths(stdout, c, results)
	} else {
		printLinks(stdout, c, results)
	}
	return 0
}

// trialResult is one trial's outcome: the per-link rows and aggregate of a
// link-layer run, or the per-path rows, aggregate, swap count and route of an
// end-to-end run; plus the class accounts of either.
type trialResult struct {
	end sim.Time

	perLink  []netsim.LinkStats
	linkAgg  netsim.LinkStats
	accounts []*workload.ClassAccount
	oldest   []float64

	perPath []network.PathStats
	pathAgg network.PathStats
	swaps   uint64
	path    string
}

// runTrial builds and runs one network from the compiled scenario with a
// trial-derived seed. trace and registry (non-nil only for trial 0) attach
// the observability layer; they never change the simulated trajectory.
func runTrial(c *scenario.Compiled, trial int, trace *obs.Tracer, registry *obs.Registry) (trialResult, error) {
	cfg := c.Config
	cfg.Seed = sim.DeriveSeed(c.Config.Seed, uint64(trial))
	cfg.Trace = trace
	cfg.Metrics = registry
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		return trialResult{}, err
	}
	if c.Service != nil {
		return runService(c, nw, trace, registry)
	}
	mt, err := c.Attach(nw)
	if err != nil {
		return trialResult{}, err
	}
	nw.Run(sim.DurationSeconds(c.Seconds))
	r := trialResult{end: nw.Sim.Now()}
	r.perLink, r.linkAgg = nw.Stats()
	if mt != nil {
		r.accounts = mt.Accounts()
		r.oldest = mt.OldestWaits()
	}
	return r, nil
}

// runService runs the end-to-end service of the scenario's service section
// over nw.
func runService(c *scenario.Compiled, nw *netsim.Network, trace *obs.Tracer, registry *obs.Registry) (trialResult, error) {
	sv := c.Service
	ncfg := network.DefaultConfig()
	ncfg.SwapGateFidelity = sv.SwapGateFidelity
	ncfg.Trace = trace
	ncfg.Metrics = registry
	costFn, ok := network.CostByName(nw, sv.Cost)
	if !ok {
		return trialResult{}, fmt.Errorf("unknown cost %q (hops|fidelity|rate)", sv.Cost)
	}
	ncfg.Cost = costFn
	svc, err := network.NewService(nw, ncfg)
	if err != nil {
		return trialResult{}, err
	}
	if c.Faults != nil {
		if err := c.Faults.Schedule(nw); err != nil {
			return trialResult{}, err
		}
	}
	p, err := svc.Router().Path(sv.Src, sv.Dst)
	if err != nil {
		return trialResult{}, err
	}
	var mt *netsim.MultiTraffic
	if len(c.Classes) > 0 {
		if mt, err = svc.AttachWorkload(c.Classes, [][2]int{{sv.Src, sv.Dst}}); err != nil {
			return trialResult{}, err
		}
	}
	nw.Run(sim.DurationSeconds(c.Seconds))
	svc.FinishAt(nw.Sim.Now())
	r := trialResult{end: nw.Sim.Now(), swaps: svc.Swaps(), path: p.String()}
	r.perPath, r.pathAgg = svc.Stats()
	if mt != nil {
		r.accounts = mt.Accounts()
		r.oldest = mt.OldestWaits()
	}
	return r, nil
}

// startCPU begins a CPU profile written to path and returns the function that
// stops it. An empty path is a no-op.
func startCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeFile creates path and fills it with write. An empty path is a no-op.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
