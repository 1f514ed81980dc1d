package workload

import (
	"fmt"

	"repro/internal/egp"
	"repro/internal/sim"
)

// ArrivalKind names a request arrival process of the multi-class workload
// engine.
type ArrivalKind string

// The arrival processes of the workload engine. The first three are
// open-loop (arrivals do not depend on service): a homogeneous Poisson
// process, a two-state Markov-modulated (bursty) Poisson process and a
// non-homogeneous Poisson process cycling through diurnal phases. The last
// is closed-loop: a fixed population of think-time sessions, each issuing
// its next CREATE when the previous request finishes.
const (
	ArrivalPoisson ArrivalKind = "poisson"
	ArrivalBursty  ArrivalKind = "bursty"
	ArrivalDiurnal ArrivalKind = "diurnal"
	ArrivalClosed  ArrivalKind = "closed"
)

// Phase is one segment of a diurnal cycle: for Fraction of the period the
// instantaneous arrival rate is Multiplier times the class's base rate.
type Phase struct {
	// Fraction of the cycle period this phase spans; the fractions of a
	// cycle must sum to 1.
	Fraction float64
	// Multiplier scales the base rate during the phase (0 silences it).
	Multiplier float64
}

// Arrival describes how one traffic class generates requests. Exactly one
// intensity source applies: open-loop classes use either Load (an offered
// load fraction of the serving site's sustainable pair rate, the paper's f)
// or a user population (Users x PerUserRate arrivals per second across the
// whole network); closed-loop classes are sized by Sessions.
type Arrival struct {
	Kind ArrivalKind

	// Load is the offered-load fraction f of the paper's arrival model,
	// applied per serving site (see PerCycleProbability).
	Load float64
	// Users is the size of the user population driving this class; the
	// aggregate request rate is Users * PerUserRate, split evenly across
	// serving sites. Populations of millions are cheap: open-loop users
	// exist only as a rate.
	Users int
	// PerUserRate is each user's request rate in arrivals per simulated
	// second.
	PerUserRate float64

	// BurstMultiplier scales the rate while a bursty class is in its burst
	// state (>= 1; the idle state runs at the base rate).
	BurstMultiplier float64
	// MeanBurst and MeanIdle are the mean sojourn times of the burst and
	// idle states (exponentially distributed).
	MeanBurst, MeanIdle sim.Duration

	// Period is the diurnal cycle length; Phases partition it.
	Period sim.Duration
	// Phases is the diurnal profile; fractions must sum to 1.
	Phases []Phase

	// Sessions is the closed-loop population: each session issues one
	// request, waits for it to finish (all pairs delivered, or a timeout or
	// error), thinks for an exponentially distributed time, then issues the
	// next.
	Sessions int
	// ThinkTime is the mean think time between a session's requests.
	ThinkTime sim.Duration
}

// Closed reports whether the arrival process is closed-loop.
func (a Arrival) Closed() bool { return a.Kind == ArrivalClosed }

// AverageMultiplier returns the time-averaged rate multiplier of the
// arrival shaping: 1 for Poisson, the sojourn-weighted state multiplier for
// bursty, the fraction-weighted phase multiplier for diurnal.
func (a Arrival) AverageMultiplier() float64 {
	switch a.Kind {
	case ArrivalBursty:
		b, i := a.MeanBurst.Seconds(), a.MeanIdle.Seconds()
		if b+i <= 0 {
			return 1
		}
		return (b*a.BurstMultiplier + i) / (b + i)
	case ArrivalDiurnal:
		m := 0.0
		for _, p := range a.Phases {
			m += p.Fraction * p.Multiplier
		}
		return m
	default:
		return 1
	}
}

// validate checks the arrival description in isolation.
func (a Arrival) validate() error {
	switch a.Kind {
	case ArrivalPoisson, ArrivalBursty, ArrivalDiurnal:
		hasLoad := a.Load > 0
		hasUsers := a.Users > 0 && a.PerUserRate > 0
		if hasLoad == hasUsers {
			return fmt.Errorf("open-loop arrivals need exactly one intensity: load, or users with per_user_rate")
		}
		if a.Sessions != 0 || a.ThinkTime != 0 {
			return fmt.Errorf("sessions/think_time only apply to closed-loop arrivals")
		}
	case ArrivalClosed:
		if a.Sessions <= 0 {
			return fmt.Errorf("closed-loop arrivals need sessions > 0")
		}
		if a.ThinkTime <= 0 {
			return fmt.Errorf("closed-loop arrivals need think_time > 0")
		}
		if a.Load != 0 || a.Users != 0 || a.PerUserRate != 0 {
			return fmt.Errorf("closed-loop arrivals are sized by sessions, not load/users")
		}
	default:
		return fmt.Errorf("unknown arrival kind %q (poisson|bursty|diurnal|closed)", a.Kind)
	}
	switch a.Kind {
	case ArrivalBursty:
		if a.BurstMultiplier < 1 {
			return fmt.Errorf("bursty arrivals need burst_multiplier >= 1, got %g", a.BurstMultiplier)
		}
		if a.MeanBurst <= 0 || a.MeanIdle <= 0 {
			return fmt.Errorf("bursty arrivals need positive mean burst and idle sojourns")
		}
	case ArrivalDiurnal:
		if a.Period <= 0 {
			return fmt.Errorf("diurnal arrivals need a positive period")
		}
		if len(a.Phases) == 0 {
			return fmt.Errorf("diurnal arrivals need at least one phase")
		}
		total, peak := 0.0, 0.0
		for i, p := range a.Phases {
			if p.Fraction <= 0 {
				return fmt.Errorf("diurnal phase %d needs a positive fraction", i)
			}
			if p.Multiplier < 0 {
				return fmt.Errorf("diurnal phase %d has a negative multiplier", i)
			}
			total += p.Fraction
			if p.Multiplier > peak {
				peak = p.Multiplier
			}
		}
		if total < 1-1e-9 || total > 1+1e-9 {
			return fmt.Errorf("diurnal phase fractions must sum to 1, got %g", total)
		}
		if peak == 0 {
			return fmt.Errorf("diurnal arrivals need at least one phase with a positive multiplier")
		}
	}
	return nil
}

// ClassSpec describes one traffic class of the multi-class workload engine:
// a user population with an arrival process, a request shape (priority, pair
// count, fidelity floor, deadline) and an origin policy.
type ClassSpec struct {
	// Name labels the class in SLO tables (e.g. "qkd-sessions").
	Name string
	// Priority selects the EGP lane: egp.PriorityNL, PriorityCK or
	// PriorityMD. NL and CK are create-and-keep; MD measures directly.
	Priority int
	// Arrival is the class's request arrival process.
	Arrival Arrival
	// MinPairs/MaxPairs bound the uniformly sampled pair count per request;
	// FixedPairs, when non-zero, pins it instead.
	MinPairs, MaxPairs int
	FixedPairs         int
	// MinFidelity is the requested fidelity floor (the long runs use 0.64).
	MinFidelity float64
	// Deadline is the per-request timeout (0 = none); requests that miss it
	// fail with TIMEOUT and count into the class's timeout rate.
	Deadline sim.Duration
	// Origin selects the submitting endpoint per request: OriginA, OriginB
	// or OriginRandom.
	Origin Origin
}

// PoissonClass returns the paper's offered load as one class: open-loop
// Poisson CREATEs at offered load fraction f per link, pair counts uniform
// in [1, maxPairs], a random origin, and priority CK when keep is set (MD
// otherwise). It has no deadline. It offers the paper's pairs per cycle,
// but its request sizes are uniform where the paper's per-cycle generator
// accepts sizes ∝ 1/k (see poisson.go), so their request sizes agree
// only at maxPairs 1.
func PoissonClass(load float64, maxPairs int, minFidelity float64, keep bool) ClassSpec {
	priority := egp.PriorityMD
	if keep {
		priority = egp.PriorityCK
	}
	return ClassSpec{
		Name:        "poisson",
		Priority:    priority,
		Arrival:     Arrival{Kind: ArrivalPoisson, Load: load},
		MinPairs:    1,
		MaxPairs:    maxPairs,
		MinFidelity: minFidelity,
		Origin:      OriginRandom,
	}
}

// Keep reports whether this class issues create-and-keep requests (NL and
// CK store the qubit; MD measures directly).
func (c ClassSpec) Keep() bool { return c.Priority != egp.PriorityMD }

// MeanPairs returns the expected pair count per request.
func (c ClassSpec) MeanPairs() float64 {
	if c.FixedPairs > 0 {
		return float64(c.FixedPairs)
	}
	return (float64(c.MinPairs) + float64(c.MaxPairs)) / 2
}

// Validate checks the class description.
func (c ClassSpec) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("workload: class needs a name")
	}
	if c.Priority < 0 || c.Priority >= egp.NumQueues {
		return fmt.Errorf("workload: class %s: priority %d out of range", c.Name, c.Priority)
	}
	if c.FixedPairs < 0 {
		return fmt.Errorf("workload: class %s: negative fixed pair count", c.Name)
	}
	if c.FixedPairs == 0 {
		if c.MinPairs < 1 || c.MaxPairs < c.MinPairs {
			return fmt.Errorf("workload: class %s: pair range [%d,%d] invalid (need 1 <= min <= max)", c.Name, c.MinPairs, c.MaxPairs)
		}
	}
	if c.MinFidelity <= 0 || c.MinFidelity > 1 {
		return fmt.Errorf("workload: class %s: min fidelity %g out of (0,1]", c.Name, c.MinFidelity)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("workload: class %s: negative deadline", c.Name)
	}
	switch c.Origin {
	case OriginA, OriginB, OriginRandom:
	default:
		return fmt.Errorf("workload: class %s: unknown origin policy %d", c.Name, c.Origin)
	}
	if err := c.Arrival.validate(); err != nil {
		return fmt.Errorf("workload: class %s: %v", c.Name, err)
	}
	return nil
}

// PriorityName renders an EGP priority lane as its paper name.
func PriorityName(p int) string {
	switch p {
	case egp.PriorityNL:
		return "NL"
	case egp.PriorityCK:
		return "CK"
	case egp.PriorityMD:
		return "MD"
	default:
		return fmt.Sprintf("P%d", p)
	}
}

// ParsePriority resolves a paper priority name (NL, CK or MD) to its EGP
// lane.
func ParsePriority(name string) (int, error) {
	switch name {
	case "NL":
		return egp.PriorityNL, nil
	case "CK":
		return egp.PriorityCK, nil
	case "MD":
		return egp.PriorityMD, nil
	default:
		return 0, fmt.Errorf("workload: unknown priority %q (NL|CK|MD)", name)
	}
}

// ParseOrigin resolves an origin policy name ("A", "B" or "random").
func ParseOrigin(name string) (Origin, error) {
	switch name {
	case "A":
		return OriginA, nil
	case "B":
		return OriginB, nil
	case "random", "":
		return OriginRandom, nil
	default:
		return 0, fmt.Errorf("workload: unknown origin policy %q (A|B|random)", name)
	}
}
