package workload

import (
	"math"

	"repro/internal/sim"
)

// Process is a startable open-loop arrival process bound to one engine:
// PoissonStream, BurstyStream and DiurnalStream implement it. The one
// request engine, netsim.MultiTraffic, runs one per open-loop class and
// site, for links and end-to-end flows alike. Closed-loop arrivals have no
// standalone process — their sessions live in that engine.
type Process interface {
	// Start schedules the first arrival; it is idempotent while running.
	Start()
	// Stop halts future arrivals.
	Stop()
	// Arrivals returns how many times the process has fired.
	Arrivals() uint64
}

// NewProcess builds the open-loop arrival process described by a for one
// serving site: avgRate is the target time-averaged arrival rate in
// arrivals per simulated second, fire runs once per arrival on the site's
// engine. A non-positive rate (e.g. an infeasible fidelity request) yields a
// process that never fires. Closed-loop kinds return nil: their sessions are
// driven by request completions, not by a free-running process.
func NewProcess(eng sim.Engine, avgRate float64, a Arrival, fire func()) Process {
	switch a.Kind {
	case ArrivalBursty:
		return NewBurstyStream(eng, avgRate, a, fire)
	case ArrivalDiurnal:
		return NewDiurnalStream(eng, avgRate, a, fire)
	case ArrivalClosed:
		return nil
	default:
		return NewPoissonStream(eng, avgRate, fire)
	}
}

// BurstyStream is a two-state Markov-modulated Poisson process: the
// instantaneous rate alternates between a base ("idle") level and
// BurstMultiplier times that level, with exponentially distributed sojourns
// in each state. It is implemented by thinning a homogeneous candidate
// chain running at the burst-state rate: each candidate arrival is accepted
// with probability rate(state)/peak, which yields an exact MMPP without
// rescheduling in-flight arrivals on state switches. The time-averaged rate
// equals the configured average regardless of the burst shape.
type BurstyStream struct {
	eng   sim.Engine
	peak  float64 // candidate chain rate = burst-state rate
	accat [2]float64
	// sojournRate[s] is the exponential rate of leaving state s.
	sojournRate [2]float64
	fire        func()

	avgRate    float64
	state      int // 0 idle, 1 burst; starts idle
	running    bool
	generation uint64
	arrivals   uint64
}

// NewBurstyStream builds a bursty stream with the given time-averaged rate.
// A non-positive average yields a stream that never fires.
func NewBurstyStream(eng sim.Engine, avgRate float64, a Arrival, fire func()) *BurstyStream {
	s := &BurstyStream{eng: eng, fire: fire}
	avgMult := a.AverageMultiplier()
	if avgRate <= 0 || avgMult <= 0 {
		return s
	}
	base := avgRate / avgMult
	s.avgRate = avgRate
	s.peak = base * a.BurstMultiplier
	s.accat = [2]float64{1 / a.BurstMultiplier, 1}
	s.sojournRate = [2]float64{1 / a.MeanIdle.Seconds(), 1 / a.MeanBurst.Seconds()}
	return s
}

// Rate returns the time-averaged arrival rate.
func (s *BurstyStream) Rate() float64 { return s.avgRate }

// Arrivals returns how many times the stream has fired.
func (s *BurstyStream) Arrivals() uint64 { return s.arrivals }

// State returns the current modulation state (0 idle, 1 burst).
func (s *BurstyStream) State() int { return s.state }

// Start schedules the first candidate arrival and the first state switch.
// It is idempotent while running.
func (s *BurstyStream) Start() {
	if s.running || s.peak <= 0 {
		return
	}
	s.running = true
	s.generation++
	s.state = 0
	s.scheduleCandidate(s.generation)
	s.scheduleSwitch(s.generation)
}

// Stop halts future arrivals and switches; already-scheduled events die on
// the generation check.
func (s *BurstyStream) Stop() { s.running = false }

// scheduleCandidate draws the next candidate interarrival at the peak rate
// and thins it by the current state's acceptance probability at fire time.
func (s *BurstyStream) scheduleCandidate(generation uint64) {
	delay := sim.DurationSeconds(s.eng.RNG().Exponential(s.peak))
	sim.Schedule(s.eng, delay, func() {
		if !s.running || generation != s.generation {
			return
		}
		if s.eng.RNG().Bernoulli(s.accat[s.state]) {
			s.arrivals++
			s.fire()
		}
		s.scheduleCandidate(generation)
	})
}

// scheduleSwitch draws the current state's sojourn and flips the state when
// it elapses.
func (s *BurstyStream) scheduleSwitch(generation uint64) {
	delay := sim.DurationSeconds(s.eng.RNG().Exponential(s.sojournRate[s.state]))
	sim.Schedule(s.eng, delay, func() {
		if !s.running || generation != s.generation {
			return
		}
		s.state = 1 - s.state
		s.scheduleSwitch(generation)
	})
}

// DiurnalStream is a non-homogeneous Poisson process whose rate follows a
// periodic phase profile (the mixed-usage "time of day" patterns): phase i
// spans Fraction_i of the period at Multiplier_i times the base rate. Like
// BurstyStream it thins a homogeneous candidate chain at the peak phase
// rate, with the acceptance probability read off the deterministic phase
// schedule at fire time — no extra random draws for phase changes, so the
// trajectory depends only on the site's RNG stream.
type DiurnalStream struct {
	eng    sim.Engine
	peak   float64 // candidate chain rate = base * max multiplier
	period sim.Duration
	// bounds[i] is the end offset of phase i within the period; accept[i]
	// its acceptance probability (multiplier/maxMultiplier).
	bounds []sim.Duration
	accept []float64
	fire   func()

	avgRate    float64
	running    bool
	generation uint64
	arrivals   uint64
}

// NewDiurnalStream builds a diurnal stream with the given time-averaged
// rate. A non-positive average yields a stream that never fires.
func NewDiurnalStream(eng sim.Engine, avgRate float64, a Arrival, fire func()) *DiurnalStream {
	s := &DiurnalStream{eng: eng, period: a.Period, fire: fire}
	avgMult := a.AverageMultiplier()
	if avgRate <= 0 || avgMult <= 0 {
		return s
	}
	peakMult := 0.0
	for _, p := range a.Phases {
		if p.Multiplier > peakMult {
			peakMult = p.Multiplier
		}
	}
	base := avgRate / avgMult
	s.avgRate = avgRate
	s.peak = base * peakMult
	offset := 0.0
	for _, p := range a.Phases {
		offset += p.Fraction
		bound := sim.Duration(math.Round(offset * float64(a.Period)))
		if bound > a.Period {
			bound = a.Period
		}
		s.bounds = append(s.bounds, bound)
		s.accept = append(s.accept, p.Multiplier/peakMult)
	}
	// Guard against fractions summing to 1-epsilon: the last phase always
	// closes the period.
	s.bounds[len(s.bounds)-1] = a.Period
	return s
}

// Rate returns the time-averaged arrival rate.
func (s *DiurnalStream) Rate() float64 { return s.avgRate }

// Arrivals returns how many times the stream has fired.
func (s *DiurnalStream) Arrivals() uint64 { return s.arrivals }

// acceptAt returns the acceptance probability of the phase active at t.
func (s *DiurnalStream) acceptAt(t sim.Time) float64 {
	into := sim.Duration(int64(t) % int64(s.period))
	for i, b := range s.bounds {
		if into < b {
			return s.accept[i]
		}
	}
	return s.accept[len(s.accept)-1]
}

// Start schedules the first candidate arrival. It is idempotent while
// running.
func (s *DiurnalStream) Start() {
	if s.running || s.peak <= 0 {
		return
	}
	s.running = true
	s.generation++
	s.scheduleCandidate(s.generation)
}

// Stop halts future arrivals; already-scheduled ones die on the generation
// check.
func (s *DiurnalStream) Stop() { s.running = false }

// scheduleCandidate draws the next candidate interarrival at the peak rate
// and thins it by the active phase's acceptance probability at fire time.
func (s *DiurnalStream) scheduleCandidate(generation uint64) {
	delay := sim.DurationSeconds(s.eng.RNG().Exponential(s.peak))
	sim.Schedule(s.eng, delay, func() {
		if !s.running || generation != s.generation {
			return
		}
		if s.eng.RNG().Bernoulli(s.acceptAt(s.eng.Now())) {
			s.arrivals++
			s.fire()
		}
		s.scheduleCandidate(generation)
	})
}
