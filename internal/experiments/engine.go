package experiments

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/nv"
)

// Trial is the coordinate tuple of one independent simulation run inside an
// experiment: which runner it belongs to, the hardware scenario, the request
// kind, the offered load and requested fidelity, plus free-form coordinates
// for runner-specific sweeps. Trials are seed-independent and conflict-free
// (each builds its own network, RNG and collector), which is exactly what
// makes them safe to fan out across the worker pool.
type Trial struct {
	// Runner is the registered runner name; it namespaces the RNG stream so
	// two runners sweeping the same coordinates never share a seed.
	Runner string
	// Scenario is the hardware scenario under test.
	Scenario nv.ScenarioID
	// Priority is the request kind (egp.PriorityNL/CK/MD), or 0 when the
	// trial is not kind-specific.
	Priority int
	// Load is the offered load fraction f_P, 0 when unused.
	Load float64
	// Fidelity is the requested minimum fidelity F_min, 0 when unused.
	Fidelity float64
	// KMax is the maximum pairs per request, 0 when unused.
	KMax int
	// Aux is a runner-specific sweep coordinate (bright-state population α,
	// communication rounds, ...), 0 when unused.
	Aux float64
	// Variant discriminates qualitative coordinates: scheduler name,
	// workload pattern, or any other label the runner sweeps over.
	Variant string
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche mix in which every input bit affects roughly half the output
// bits. Chaining it over the trial coordinates decorrelates nearby trials,
// unlike additive derivation where (priority+1, load) and (priority, load+1)
// collide.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString folds a string into one 64-bit word (FNV-1a).
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return h
}

// DeriveSeed mixes a base seed with a sequence of coordinate words through a
// splitmix64 chain. Distinct coordinate tuples yield (with overwhelming
// probability) distinct seeds, so every trial gets its own RNG stream.
func DeriveSeed(base int64, words ...uint64) int64 {
	h := splitmix64(uint64(base))
	for _, w := range words {
		h = splitmix64(h ^ w)
	}
	return int64(h)
}

// DeriveSeed returns the deterministic RNG seed of this trial: a function of
// the base seed and every trial coordinate, independent of execution order
// and parallelism level.
func (t Trial) DeriveSeed(base int64) int64 {
	return DeriveSeed(base,
		hashString(t.Runner),
		hashString(string(t.Scenario)),
		uint64(int64(t.Priority)),
		math.Float64bits(t.Load),
		math.Float64bits(t.Fidelity),
		uint64(int64(t.KMax)),
		math.Float64bits(t.Aux),
		hashString(t.Variant),
	)
}

// workers resolves Options.Parallelism: non-positive means one worker per
// available CPU.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runTrials evaluates run over every trial on a shared worker pool of
// Options.Parallelism goroutines and returns the results in trial order.
// Because each trial derives its seed from its own coordinates and builds
// its own network, the result slice is bit-identical at every parallelism
// level; only wall time changes.
func runTrials[R any](opt Options, trials []Trial, run func(Trial) R) []R {
	cases := make([]trialCase[struct{}], len(trials))
	for i, t := range trials {
		cases[i].trial = t
	}
	return runTrialCases(opt, cases, func(t Trial, _ struct{}) R { return run(t) })
}

// trialCase pairs a Trial with runner-specific context that is not a seed
// coordinate (scheduler, workload pattern, loss probability, ...), keeping
// the pairing intact no matter how the case list is built or reordered.
type trialCase[C any] struct {
	trial Trial
	ctx   C
}

// runTrialCases is runTrials for trials that carry extra context.
func runTrialCases[C, R any](opt Options, cases []trialCase[C], run func(Trial, C) R) []R {
	out := make([]R, len(cases))
	RunIndexed(len(cases), opt.workers(), func(i int) {
		out[i] = run(cases[i].trial, cases[i].ctx)
	})
	return out
}

// RunIndexed evaluates fn(0..n-1) on a pool of at most workers goroutines.
// Every index runs exactly once and the call returns when all have
// completed; callers that write results to the i-th slot of a slice get
// order-independent output. It is the fan-out primitive under the trial
// engine, exported for cmd/repro, which parallelises a spec's trials.
func RunIndexed(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
