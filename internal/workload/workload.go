// Package workload defines the request workloads of the paper's evaluation
// (Section 6 and Appendix C.2) and of the multi-class workload engine as one
// class type, ClassSpec, which netsim.MultiTraffic runs for specs, the
// benchmark and the paper's runners alike. It holds the arrival rate
// f·psucc/(E·k) behind every Load-driven class (poisson.go), the load levels
// (Low/High/Ultra), the origin policies (A, B, random), the single-kind and
// mixed-usage classes of Section 6, Appendix Table 2 and Table 1, the
// open-loop arrival processes and the per-class SLO accounts.
package workload

import (
	"fmt"

	"repro/internal/egp"
)

// LoadLevel is the fraction f determining the offered load.
type LoadLevel float64

// The load levels of the long runs (Section 6).
const (
	LoadLow   LoadLevel = 0.70
	LoadHigh  LoadLevel = 0.99
	LoadUltra LoadLevel = 1.50
)

// String renders the paper's name of a load level (Low, High or Ultra),
// falling back to the numeric fraction for non-standard levels.
func (l LoadLevel) String() string {
	switch l {
	case LoadLow:
		return "Low"
	case LoadHigh:
		return "High"
	case LoadUltra:
		return "Ultra"
	}
	return fmt.Sprintf("f=%.2f", float64(l))
}

// Origin selects where CREATE requests originate.
type Origin int

// Origin policies of the fairness study.
const (
	OriginA Origin = iota
	OriginB
	OriginRandom
)

// String renders the origin policy.
func (o Origin) String() string {
	switch o {
	case OriginA:
		return "A"
	case OriginB:
		return "B"
	default:
		return "random"
	}
}

// paperClass returns Poisson CREATEs of one priority and a fixed pair count
// at load fraction f, from a random origin, at the long runs' fixed target
// fidelity Fmin = 0.64 and with no deadline.
func paperClass(priority int, load float64, pairs int) ClassSpec {
	return ClassSpec{
		Name:        fmt.Sprintf("%s-k%d", egp.PriorityName(priority), pairs),
		Priority:    priority,
		Arrival:     Arrival{Kind: ArrivalPoisson, Load: load},
		FixedPairs:  pairs,
		MinFidelity: 0.64,
		Origin:      OriginRandom,
	}
}

// SingleKind returns the classes of a single-kind long run (Section 6): one
// use case at load fraction f with sizes in [1, kmax], keeping the paper's
// size law ∝ 1/k (poisson.go) as kmax fixed-size classes at load f/kmax
// each. Their rates f·psucc/(E·T·k·kmax) are the per-cycle acceptance rates
// f·psucc/(E·k·kmax) over the cycle time T. A zero load is no class.
func SingleKind(priority int, load LoadLevel, kmax int) []ClassSpec {
	if load <= 0 {
		return nil
	}
	classes := make([]ClassSpec, kmax)
	for k := 1; k <= kmax; k++ {
		classes[k-1] = paperClass(priority, float64(load)/float64(kmax), k)
	}
	return classes
}

// Pattern names a mixed-usage pattern of Appendix Table 2.
type Pattern string

// The usage patterns of Appendix Table 2.
const (
	PatternUniform    Pattern = "Uniform"
	PatternMoreNL     Pattern = "MoreNL"
	PatternMoreCK     Pattern = "MoreCK"
	PatternMoreMD     Pattern = "MoreMD"
	PatternNoNLMoreCK Pattern = "NoNLMoreCK"
	PatternNoNLMoreMD Pattern = "NoNLMoreMD"
)

// AllPatterns lists the mixed-usage patterns in the order of Appendix C.2.
func AllPatterns() []Pattern {
	return []Pattern{PatternUniform, PatternMoreNL, PatternMoreCK, PatternMoreMD, PatternNoNLMoreCK, PatternNoNLMoreMD}
}

// Mixed returns the classes of a mixed-usage pattern from Appendix Table 2:
// NL, CK and MD use cases in that order, without the ones at zero load.
func Mixed(p Pattern) []ClassSpec {
	const f = 0.99
	mk := func(fNL, fCK, fMD float64, kNL, kCK, kMD int) []ClassSpec {
		classes := SingleKind(egp.PriorityNL, LoadLevel(fNL), kNL)
		classes = append(classes, SingleKind(egp.PriorityCK, LoadLevel(fCK), kCK)...)
		return append(classes, SingleKind(egp.PriorityMD, LoadLevel(fMD), kMD)...)
	}
	switch p {
	case PatternUniform:
		return mk(f/3, f/3, f/3, 1, 1, 1)
	case PatternMoreNL:
		return mk(f*4/6, f/6, f/6, 3, 3, 256)
	case PatternMoreCK:
		return mk(f/6, f*4/6, f/6, 3, 3, 256)
	case PatternMoreMD:
		return mk(f/6, f/6, f*4/6, 3, 3, 256)
	case PatternNoNLMoreCK:
		return mk(0, f*4/5, f/5, 3, 3, 256)
	case PatternNoNLMoreMD:
		return mk(0, f/5, f*4/5, 3, 3, 256)
	default:
		panic("workload: unknown pattern " + string(p))
	}
}

// Table1Pattern returns the classes of the two request patterns of Table 1:
// (i) uniform load across NL/CK/MD with 2/2/10 pairs per request, and (ii)
// no NL with more MD.
func Table1Pattern(uniform bool) []ClassSpec {
	const f = 0.99
	if uniform {
		return []ClassSpec{
			paperClass(egp.PriorityNL, f/3, 2),
			paperClass(egp.PriorityCK, f/3, 2),
			paperClass(egp.PriorityMD, f/3, 10),
		}
	}
	return []ClassSpec{
		paperClass(egp.PriorityCK, f/5, 2),
		paperClass(egp.PriorityMD, f*4/5, 10),
	}
}
