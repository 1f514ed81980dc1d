// Package-level benchmarks: one testing.B benchmark per table/figure of the
// paper's evaluation (driving the experiment runners at reduced scale), plus
// micro-benchmarks of the substrates and an ablation benchmark for one of
// the protocol's design choices (emission multiplexing).
//
// Run with: go test -bench=. -benchmem
package main

import (
	"runtime"
	"testing"

	"repro/internal/egp"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/photonics"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchOptions keeps every experiment benchmark short enough for routine
// benchmarking while still exercising the full protocol stack. Parallelism
// is pinned to 1 so the per-experiment numbers stay comparable across
// machines and with pre-engine baselines; the BenchmarkEngine* pair below
// measures the parallel speedup explicitly.
func benchOptions() experiments.Options {
	opt := experiments.QuickOptions()
	opt.SimulatedSeconds = 0.5
	opt.Parallelism = 1
	return opt
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	runner, ok := experiments.ByName(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	opt := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		tables := runner.Run(opt)
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("experiment produced no data")
		}
	}
}

// --- One benchmark per paper table/figure -------------------------------

func BenchmarkFig8Validation(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9Decoherence(b *testing.B)  { runExperiment(b, "fig9") }
func BenchmarkFig6Tradeoffs(b *testing.B)    { runExperiment(b, "fig6a") }
func BenchmarkFig6Fidelity(b *testing.B)     { runExperiment(b, "fig6bc") }
func BenchmarkTable5Robustness(b *testing.B) { runExperiment(b, "table5") }
func BenchmarkSec62Metrics(b *testing.B)     { runExperiment(b, "metrics") }
func BenchmarkTable1Scheduling(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkMixed(b *testing.B)            { runExperiment(b, "mixed") }

// --- Trial-engine parallelism benchmarks ---------------------------------

// benchmarkEngine drives a protocol-heavy subset of the suite at a fixed
// parallelism level so the sequential-vs-parallel wall-time ratio quantifies
// the worker-pool speedup.
func benchmarkEngine(b *testing.B, parallelism int) {
	b.Helper()
	names := []string{"fig6a", "table1", "metrics"}
	opt := benchOptions()
	opt.Parallelism = parallelism
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		for _, name := range names {
			runner, ok := experiments.ByName(name)
			if !ok {
				b.Fatalf("unknown experiment %q", name)
			}
			if tables := runner.Run(opt); len(tables) == 0 {
				b.Fatal("experiment produced no data")
			}
		}
	}
}

func BenchmarkEngineSequential(b *testing.B) { benchmarkEngine(b, 1) }

func BenchmarkEngineParallel(b *testing.B) { benchmarkEngine(b, runtime.GOMAXPROCS(0)) }

// --- Protocol-stack throughput benchmarks --------------------------------

// benchmarkScenario runs the paper's link (a two-node netsim network) under
// the offered load f = 1.5, k_max 3 for a fixed simulated duration and
// reports delivered pairs per run.
func benchmarkScenario(b *testing.B, scenario nv.ScenarioID, priority int, multiplex bool) {
	b.Helper()
	b.ReportAllocs()
	pairs := 0
	for i := 0; i < b.N; i++ {
		cfg := netsim.DefaultConfig(netsim.Chain(2), scenario)
		cfg.Seed = int64(i + 1)
		cfg.EmissionMultiplexing = multiplex
		nw, err := netsim.NewNetwork(cfg)
		if err != nil {
			b.Fatal(err)
		}
		keep := priority != egp.PriorityMD
		if _, err := nw.AttachWorkload([]workload.ClassSpec{workload.PoissonClass(1.5, 3, 0.64, keep)}); err != nil {
			b.Fatal(err)
		}
		nw.Run(sim.DurationSeconds(0.5))
		pairs += nw.Links[0].Account.Pairs(priority)
	}
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/run")
}

func BenchmarkLabMeasureDirectly(b *testing.B) {
	benchmarkScenario(b, nv.ScenarioLab, egp.PriorityMD, true)
}

func BenchmarkLabCreateKeep(b *testing.B) {
	benchmarkScenario(b, nv.ScenarioLab, egp.PriorityCK, true)
}

func BenchmarkQL2020MeasureDirectly(b *testing.B) {
	benchmarkScenario(b, nv.ScenarioQL2020, egp.PriorityMD, true)
}

func BenchmarkQL2020CreateKeep(b *testing.B) {
	benchmarkScenario(b, nv.ScenarioQL2020, egp.PriorityCK, true)
}

// --- Ablation benchmarks (protocol design choices) -----------------------

// Emission multiplexing on vs off for the MD use case on QL2020, where reply
// latency (145 µs) far exceeds the attempt cycle (10.12 µs).
func BenchmarkAblationMultiplexingOn(b *testing.B) {
	benchmarkScenario(b, nv.ScenarioQL2020, egp.PriorityMD, true)
}

func BenchmarkAblationMultiplexingOff(b *testing.B) {
	benchmarkScenario(b, nv.ScenarioQL2020, egp.PriorityMD, false)
}

// --- Substrate micro-benchmarks -------------------------------------------

func BenchmarkDenseOpticalAttempt(b *testing.B) {
	platform := nv.LabPlatform()
	rng := sim.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		platform.Optics.Attempt(0.3, 0.3, rng)
	}
}

func BenchmarkCachedOpticalSample(b *testing.B) {
	platform := nv.LabPlatform()
	sampler := photonics.NewLinkSampler(platform.Optics)
	rng := sim.NewRNG(1)
	sampler.Sample(0.3, 0.3, rng) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampler.Sample(0.3, 0.3, rng)
	}
}

// The pair-backend micro-benchmarks measure one full pair lifecycle —
// herald, storage decoherence on both sides, per-attempt dephasing, swap
// with BSM gate noise, Pauli-frame correction, fidelity read — on each
// PairState implementation. The Bell-diagonal fast path replaces every
// complex matrix operation with O(1) coefficient arithmetic.
func pairLifecycle(left, right quantum.PairState) float64 {
	electron := quantum.T1T2Params{T1: 2.86e-3, T2: 1.00e-3}
	left.ApplyMemoryNoise(0, 50e-6, electron)
	left.ApplyMemoryNoise(1, 20e-6, electron)
	left.ApplyDephasing(1, 0.002)
	right.ApplyMemoryNoise(0, 30e-6, electron)
	far, outcome := left.SwapWith(right, 1, 0, 0.98, 0.42)
	far.ApplyPauli(1, quantum.CorrectionPauliOp(quantum.SwappedBell(quantum.PsiPlus, quantum.PsiPlus, outcome), quantum.PsiPlus))
	return far.BellFidelity(quantum.PsiPlus)
}

func BenchmarkPairLifecycleDense(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		left := quantum.WernerState(quantum.PsiPlus, 0.9)
		right := quantum.WernerState(quantum.PsiPlus, 0.87)
		_ = pairLifecycle(left, right)
	}
}

func BenchmarkPairLifecycleBellDiag(b *testing.B) {
	b.ReportAllocs()
	left := quantum.NewBellDiagWerner(quantum.PsiPlus, 0.9)
	right := quantum.NewBellDiagWerner(quantum.PsiPlus, 0.87)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		left.SetCoefficients([4]float64{0.1 / 3, 0.1 / 3, 0.9, 0.1 / 3})
		right.SetCoefficients([4]float64{0.13 / 3, 0.13 / 3, 0.87, 0.13 / 3})
		_ = pairLifecycle(left, right)
	}
}

func BenchmarkTwoQubitKraus(b *testing.B) {
	kraus := quantum.DephasingKraus(0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := quantum.NewBellState(quantum.PsiPlus)
		s.ApplyKraus(kraus, 0)
	}
}

func BenchmarkFourQubitPartialTrace(b *testing.B) {
	bell := quantum.NewBellState(quantum.PsiPlus)
	joint := bell.Tensor(quantum.NewBellState(quantum.PhiPlus))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		joint.PartialTrace(1, 3)
	}
}

func BenchmarkEventLoop(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(1)
		count := 0
		sim.Ticker(s, 10*sim.Microsecond, func() { count++ })
		_ = s.RunFor(100 * sim.Millisecond)
	}
}

func BenchmarkMemoryDecoherence(b *testing.B) {
	params := quantum.T1T2Params{T1: 2.86e-3, T2: 1e-3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := quantum.NewBellState(quantum.PsiPlus)
		quantum.ApplyMemoryNoise(s, 0, 0.5e-3, params)
	}
}
