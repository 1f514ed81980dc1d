package workload

import (
	"fmt"

	"repro/internal/egp"
	"repro/internal/obs"
)

// ClassAccount accumulates one serving site's delivered service for one
// traffic class. Sites (e.g. netsim links) each own one account per class,
// mutated only from their own engine's events, and the per-site accounts are
// merged in deterministic site order when a run finishes — which is what
// keeps SLO tables byte-identical at any shard count.
type ClassAccount struct {
	// Offered counts submitted CREATE requests; Rejected the synchronous
	// rejects among them (queue full, infeasible fidelity).
	Offered, Rejected uint64
	// NoRoute counts, within Rejected, the synchronous no-route rejects
	// (NOROUTE: unreachable endpoints or no path meeting the fidelity floor).
	NoRoute uint64
	// PairsRequested sums the pair counts of accepted requests.
	PairsRequested uint64
	// Pairs counts delivered pairs; Completed fully served requests.
	Pairs, Completed uint64
	// TimedOut counts requests that failed with TIMEOUT; Outage requests
	// killed by a link outage (LINKDOWN) — the fault injector's signature,
	// kept apart from deadline misses; Failed all other asynchronous
	// failures.
	TimedOut, Outage, Failed uint64
	// TTP keeps every per-pair time-to-pair observation in seconds
	// (delivery time minus the request's CREATE time) exactly, for the
	// p50/p99 columns of the SLO table.
	TTP obs.Series
}

// Merge folds other into a. Percentiles are order-independent, and callers
// merge in deterministic site order so sums are too.
func (a *ClassAccount) Merge(other *ClassAccount) {
	a.Offered += other.Offered
	a.Rejected += other.Rejected
	a.NoRoute += other.NoRoute
	a.PairsRequested += other.PairsRequested
	a.Pairs += other.Pairs
	a.Completed += other.Completed
	a.TimedOut += other.TimedOut
	a.Outage += other.Outage
	a.Failed += other.Failed
	a.TTP.Merge(&other.TTP)
}

// Terminal returns how many accepted requests reached a terminal state.
func (a *ClassAccount) Terminal() uint64 {
	return a.Completed + a.TimedOut + a.Outage + a.Failed
}

// Outstanding returns how many accepted requests are still in flight.
func (a *ClassAccount) Outstanding() uint64 {
	accepted := a.Offered - a.Rejected
	t := a.Terminal()
	if t > accepted {
		return 0
	}
	return accepted - t
}

// ClassSLO is the per-class service-level report of one run: offered vs
// delivered traffic, timeout rate, time-to-pair percentiles and a starvation
// flag.
type ClassSLO struct {
	Class    string
	Priority int
	Offered  uint64
	Rejected uint64
	// NoRoute is the no-route share of Rejected.
	NoRoute uint64
	Pairs   uint64
	// Completed / TimedOut / Outage / Failed partition the terminal requests;
	// Outage isolates requests killed by link outages from deadline misses.
	Completed, TimedOut, Outage, Failed uint64
	// Outstanding requests were still in flight when the run ended.
	Outstanding uint64
	// Throughput is delivered pairs per simulated second.
	Throughput float64
	// TTPP50/TTPP99 are the per-pair time-to-pair percentiles in seconds.
	TTPP50, TTPP99 float64
	// TimeoutRate is TimedOut over terminal requests (0 when none ended).
	TimeoutRate float64
	// OldestWaitSeconds is the age of the oldest still-outstanding request
	// at the end of the run (0 when none are outstanding).
	OldestWaitSeconds float64
	// Starved flags a class that had accepted requests but saw zero pairs
	// delivered while other classes were being served.
	Starved bool
}

// BuildSLO turns merged per-class accounts into the SLO report. oldestWait
// holds, per class, the age in seconds of the oldest request still
// outstanding at the end of the run (pass nil when untracked); duration is
// the measured interval in simulated seconds.
func BuildSLO(classes []ClassSpec, accounts []*ClassAccount, oldestWait []float64, duration float64) []ClassSLO {
	var totalPairs uint64
	for _, a := range accounts {
		totalPairs += a.Pairs
	}
	out := make([]ClassSLO, len(classes))
	for i, c := range classes {
		a := accounts[i]
		s := ClassSLO{
			Class:       c.Name,
			Priority:    c.Priority,
			Offered:     a.Offered,
			Rejected:    a.Rejected,
			NoRoute:     a.NoRoute,
			Pairs:       a.Pairs,
			Completed:   a.Completed,
			TimedOut:    a.TimedOut,
			Outage:      a.Outage,
			Failed:      a.Failed,
			Outstanding: a.Outstanding(),
			Throughput:  obs.SafeRate(float64(a.Pairs), duration),
			TTPP50:      a.TTP.Percentile(50),
			TTPP99:      a.TTP.Percentile(99),
		}
		if t := a.Terminal(); t > 0 {
			s.TimeoutRate = float64(a.TimedOut) / float64(t)
		}
		if oldestWait != nil {
			s.OldestWaitSeconds = oldestWait[i]
		}
		// Starvation: the class asked for service and got none while the
		// rest of the network delivered pairs.
		s.Starved = a.Offered > a.Rejected && a.Pairs == 0 && totalPairs > 0
		out[i] = s
	}
	return out
}

// SLOColumns is the canonical column set of the per-class SLO table printed
// by the CLIs.
var SLOColumns = []string{
	"class", "prio", "offered", "rejected", "noroute", "pairs", "completed",
	"timeout", "outage", "failed", "inflight", "pairs/s", "ttp_p50(s)",
	"ttp_p99(s)", "timeout_rate", "oldest_wait(s)", "starved",
}

// Row renders the report as one table row matching SLOColumns.
func (s ClassSLO) Row() []string {
	starved := "no"
	if s.Starved {
		starved = "STARVED"
	}
	return []string{
		s.Class,
		egp.PriorityName(s.Priority),
		fmt.Sprintf("%d", s.Offered),
		fmt.Sprintf("%d", s.Rejected),
		fmt.Sprintf("%d", s.NoRoute),
		fmt.Sprintf("%d", s.Pairs),
		fmt.Sprintf("%d", s.Completed),
		fmt.Sprintf("%d", s.TimedOut),
		fmt.Sprintf("%d", s.Outage),
		fmt.Sprintf("%d", s.Failed),
		fmt.Sprintf("%d", s.Outstanding),
		fmt.Sprintf("%.3f", s.Throughput),
		fmt.Sprintf("%.4f", s.TTPP50),
		fmt.Sprintf("%.4f", s.TTPP99),
		fmt.Sprintf("%.3f", s.TimeoutRate),
		fmt.Sprintf("%.4f", s.OldestWaitSeconds),
		starved,
	}
}
