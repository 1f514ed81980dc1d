// Package workload defines the request workloads of the paper's evaluation
// (Section 6 and Appendix C.2) and of the multi-class workload engine: the
// arrival rate f·psucc/(E·k) behind every Load-driven class (poisson.go),
// the load levels (Low/High/Ultra), the origin policies (A, B, random), the
// single-kind and mixed-usage class lists of Appendix Table 2 and Table 1,
// the open-loop arrival processes, the ClassSpec of netsim.MultiTraffic and
// the per-class SLO accounts.
package workload

import (
	"fmt"

	"repro/internal/egp"
	"repro/internal/sim"
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

// Class describes the request stream of one use case within a scenario.
type Class struct {
	// Priority selects NL, CK or MD.
	Priority int
	// Fraction is the f_P load fraction of this class.
	Fraction float64
	// MaxPairs is k_max: each request asks for a uniform random number of
	// pairs in [1, MaxPairs].
	MaxPairs int
	// MinFidelity is the requested minimum fidelity (0.64 in the long runs).
	MinFidelity float64
	// MaxTime is the request timeout (0 = none).
	MaxTime sim.Duration
	// FixedPairs, when non-zero, requests exactly this many pairs instead of
	// a random number (used by the Table 1 scheduling study).
	FixedPairs int
}

// Keep reports whether this class issues create-and-keep requests (NL and CK
// store the qubit; MD measures directly).
func (c Class) Keep() bool { return c.Priority != egp.PriorityMD }

// SingleKind returns the class list of a single-kind long run (Section 6):
// one use case at the given load with kmax pairs per request and the fixed
// target fidelity Fmin = 0.64.
func SingleKind(priority int, load LoadLevel, kmax int) []Class {
	return []Class{{
		Priority:    priority,
		Fraction:    float64(load),
		MaxPairs:    kmax,
		MinFidelity: 0.64,
	}}
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

// Mixed returns the class list of a mixed-usage pattern from Appendix
// Table 2. The fidelity target is the long runs' fixed Fmin = 0.64.
func Mixed(p Pattern) []Class {
	const f = 0.99
	mk := func(fNL, fCK, fMD float64, kNL, kCK, kMD int) []Class {
		return []Class{
			{Priority: egp.PriorityNL, Fraction: fNL, MaxPairs: kNL, MinFidelity: 0.64},
			{Priority: egp.PriorityCK, Fraction: fCK, MaxPairs: kCK, MinFidelity: 0.64},
			{Priority: egp.PriorityMD, Fraction: fMD, MaxPairs: kMD, MinFidelity: 0.64},
		}
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

// Table1Pattern returns the class lists of the two request patterns of
// Table 1: (i) uniform load across NL/CK/MD with 2/2/10 pairs per request,
// and (ii) no NL with more MD.
func Table1Pattern(uniform bool) []Class {
	const f = 0.99
	if uniform {
		return []Class{
			{Priority: egp.PriorityNL, Fraction: f / 3, FixedPairs: 2, MinFidelity: 0.64},
			{Priority: egp.PriorityCK, Fraction: f / 3, FixedPairs: 2, MinFidelity: 0.64},
			{Priority: egp.PriorityMD, Fraction: f / 3, FixedPairs: 10, MinFidelity: 0.64},
		}
	}
	return []Class{
		{Priority: egp.PriorityCK, Fraction: f / 5, FixedPairs: 2, MinFidelity: 0.64},
		{Priority: egp.PriorityMD, Fraction: f * 4 / 5, FixedPairs: 10, MinFidelity: 0.64},
	}
}
