package workload

import (
	"repro/internal/egp"
	"repro/internal/nv"
	"repro/internal/sim"
)

// This file is the single home of the paper's request-arrival rate
// (Section 6), shared by the per-cycle Bernoulli generator the paper's
// runners drive (internal/experiments) and the event-driven classes of
// netsim.MultiTraffic (exponential interarrivals on PoissonStream). Both
// express their rates through PerCycleProbability/RatePerSecond, so they
// offer the same pairs per cycle, but not the same requests:
//
//   - the per-cycle generator draws k uniform in [1, k_max] and accepts a
//     request with probability p/k, so accepted sizes are ∝ 1/k (mean
//     k_max/H(k_max): 1.64 at k_max 3);
//   - a PoissonClass draws sizes uniform in [1, k_max] (mean 2 at k_max 3)
//     at rate p/k̄.
//
// At k_max > 1 the Poisson class therefore issues fewer, larger requests,
// which moves request latency and queue length.

// PerCycleProbability returns the probability that a new request arrives in
// one MHP cycle before dividing by the sampled pair count k: f·psucc/E, with
// psucc the per-attempt herald success probability at the α meeting the
// requested fidelity and E the expected cycles per attempt of the request
// kind (Section 6). It returns 0 when the requested fidelity is infeasible on
// the hardware or the load fraction is non-positive.
func PerCycleProbability(feu *egp.FidelityEstimationUnit, platform *nv.Platform, keep bool, load, minFidelity float64) float64 {
	if load <= 0 {
		return 0
	}
	alpha, ok := feu.AlphaForFidelity(minFidelity)
	if !ok {
		return 0
	}
	rt := nv.RequestMeasure
	if keep {
		rt = nv.RequestKeep
	}
	e := platform.ExpectedCyclesPerAttempt[rt]
	if e < 1 {
		e = 1
	}
	return load * feu.SuccessProbability(alpha) / e
}

// RatePerSecond converts the per-cycle arrival probability into a request
// rate in arrivals per simulated second for a mean request size of meanPairs:
// rate = f·psucc / (E·cycleTime·k̄), the arrival model netsim's exponential
// interarrival scheduling uses.
func RatePerSecond(feu *egp.FidelityEstimationUnit, platform *nv.Platform, keep bool, load, minFidelity, meanPairs float64) float64 {
	p := PerCycleProbability(feu, platform, keep, load, minFidelity)
	if p <= 0 {
		return 0
	}
	cycleSec := platform.CycleTime[nv.RequestMeasure].Seconds()
	if cycleSec <= 0 || meanPairs <= 0 {
		return 0
	}
	return p / (cycleSec * meanPairs)
}

// PoissonStream schedules a Poisson arrival process on the shared simulator:
// exponential interarrival times drawn from the simulator RNG, one fire
// callback per arrival. Streams are restartable; arrivals already scheduled
// before a Stop die on a generation check instead of rescheduling alongside
// the fresh chain (which would double the offered load after a restart).
type PoissonStream struct {
	sim  sim.Engine
	rate float64
	fire func()

	running    bool
	generation uint64
	arrivals   uint64
}

// NewPoissonStream builds a stream firing at the given rate (arrivals per
// simulated second). A non-positive rate yields a stream that never fires.
func NewPoissonStream(s sim.Engine, rate float64, fire func()) *PoissonStream {
	return &PoissonStream{sim: s, rate: rate, fire: fire}
}

// Rate returns the configured arrival rate in arrivals per second.
func (p *PoissonStream) Rate() float64 { return p.rate }

// Arrivals returns how many times the stream has fired.
func (p *PoissonStream) Arrivals() uint64 { return p.arrivals }

// Start schedules the first arrival. It is idempotent while running.
func (p *PoissonStream) Start() {
	if p.running || p.rate <= 0 {
		return
	}
	p.running = true
	p.generation++
	p.scheduleNext(p.generation)
}

// Stop halts future arrivals; already-scheduled ones die on the generation
// check.
func (p *PoissonStream) Stop() { p.running = false }

// scheduleNext draws the next exponential interarrival time and schedules the
// arrival.
func (p *PoissonStream) scheduleNext(generation uint64) {
	delay := sim.DurationSeconds(p.sim.RNG().Exponential(p.rate))
	sim.Schedule(p.sim, delay, func() {
		if !p.running || generation != p.generation {
			return
		}
		p.arrivals++
		p.fire()
		p.scheduleNext(generation)
	})
}
