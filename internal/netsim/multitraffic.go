package netsim

import (
	"fmt"

	"repro/internal/egp"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// MultiTraffic drives a multi-class workload across every link of a network:
// each traffic class owns, per link, an open-loop arrival process (Poisson,
// bursty, diurnal) or a population of closed-loop think-time sessions, plus a
// per-link SLO account. All of a link's workload state — arrival processes,
// session timers, in-flight request table, account — lives on the link's own
// engine view and is touched only by that shard's events, so the trajectory
// and the merged SLO report are byte-identical at every shard count.
//
// It is the link layer's only traffic generator: the paper's evaluation
// arrival model (CREATEs at rate f·psucc/(E·k̄), pair counts uniform in
// [1, k_max], a random origin) is the one-class case, workload.PoissonClass.
type MultiTraffic struct {
	net     *Network
	classes []workload.ClassSpec
	links   []*linkTraffic

	started    bool
	generation uint64
}

// linkTraffic is one link's slice of the workload: per-class arrival
// processes, session counts, the in-flight request table and accounts. It is
// mutated only from the owning shard's events.
type linkTraffic struct {
	link *Link
	// procs[c] is class c's open-loop arrival process on this link (nil for
	// closed-loop classes and never-firing for infeasible rates).
	procs []workload.Process
	// sessions[c] is class c's closed-loop session population on this link.
	sessions []int
	// accounts[c] is class c's local SLO account.
	accounts []*workload.ClassAccount
	// pending maps requestKey(role, createID) to the in-flight request's
	// bookkeeping. Entries are removed on the terminal OK or error event.
	pending map[uint64]*pendingRequest
}

// pendingRequest tracks one accepted in-flight request.
type pendingRequest struct {
	class int
	at    sim.Time
	// closed marks a closed-loop session's request: its terminal event
	// triggers the session's next think-submit cycle.
	closed bool
}

// NewMultiTraffic builds the workload engine for the network. Per-link
// open-loop rates follow the paper's arrival model for Load-driven classes
// (see workload.RatePerSecond) and split the aggregate Users x PerUserRate
// evenly across links for population-driven ones; closed-loop session
// populations are distributed across links round-robin.
func NewMultiTraffic(nw *Network, classes []workload.ClassSpec) (*MultiTraffic, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("netsim: workload needs at least one traffic class")
	}
	for _, c := range classes {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	mt := &MultiTraffic{net: nw, classes: classes}
	n := len(nw.Links)
	for li, l := range nw.Links {
		lt := &linkTraffic{
			link:     l,
			procs:    make([]workload.Process, len(classes)),
			sessions: make([]int, len(classes)),
			accounts: make([]*workload.ClassAccount, len(classes)),
			pending:  make(map[uint64]*pendingRequest),
		}
		for ci, c := range classes {
			lt.accounts[ci] = &workload.ClassAccount{}
			if c.Arrival.Closed() {
				// Round-robin distribution: link li serves session s iff
				// s ≡ li (mod n), so populations that don't divide evenly
				// still land deterministically.
				lt.sessions[ci] = c.Arrival.Sessions / n
				if li < c.Arrival.Sessions%n {
					lt.sessions[ci]++
				}
				continue
			}
			var rate float64
			if c.Arrival.Load > 0 {
				rate = workload.RatePerSecond(l.EGPA.FEU(), nw.Platform, c.Keep(), c.Arrival.Load, c.MinFidelity, c.MeanPairs())
			} else {
				rate = float64(c.Arrival.Users) * c.Arrival.PerUserRate / float64(n)
			}
			link, class := lt, ci
			lt.procs[ci] = workload.NewProcess(l.Eng, rate, c.Arrival, func() { mt.submit(link, class, false) })
		}
		mt.links = append(mt.links, lt)
	}
	mt.wireHooks()
	return mt, nil
}

// wireHooks chains the workload accounting onto the network's link-event
// hooks, preserving any observer already installed (e.g. the network layer's
// held-pair consumer).
func (mt *MultiTraffic) wireHooks() {
	byLink := make(map[LinkID]*linkTraffic, len(mt.links))
	for _, lt := range mt.links {
		byLink[lt.link.ID] = lt
	}
	prevOK := mt.net.OnLinkOK
	mt.net.OnLinkOK = func(l *Link, ev egp.OKEvent) {
		if prevOK != nil {
			prevOK(l, ev)
		}
		if ev.OriginIsLocal {
			mt.handleOK(byLink[l.ID], ev)
		}
	}
	prevErr := mt.net.OnLinkError
	mt.net.OnLinkError = func(l *Link, ev egp.ErrorEvent) {
		if prevErr != nil {
			prevErr(l, ev)
		}
		mt.handleError(byLink[l.ID], ev)
	}
}

// Start launches every open-loop arrival process and schedules a
// think-submit cycle for every closed-loop session that has no request in
// flight. It is idempotent while running.
func (mt *MultiTraffic) Start() {
	if mt.started {
		return
	}
	mt.started = true
	mt.generation++
	for _, lt := range mt.links {
		// A request still in flight from before a Stop cycles its session
		// when it completes, so only the idle sessions are topped up.
		inFlight := make([]int, len(mt.classes))
		for _, p := range lt.pending {
			if p.closed {
				inFlight[p.class]++
			}
		}
		for ci := range mt.classes {
			if p := lt.procs[ci]; p != nil {
				p.Start()
			}
			// Sessions begin with a think pause rather than a synchronized
			// burst at t=0: each draws its own exponential offset from the
			// link's stream, staggering the population deterministically.
			for s := inFlight[ci]; s < lt.sessions[ci]; s++ {
				mt.scheduleThink(lt, ci, mt.generation)
			}
		}
	}
}

// Stop halts open-loop arrivals and session cycles; already-scheduled events
// die on the generation check.
func (mt *MultiTraffic) Stop() {
	mt.started = false
	for _, lt := range mt.links {
		for _, p := range lt.procs {
			if p != nil {
				p.Stop()
			}
		}
	}
}

// scheduleThink schedules a closed-loop session's next submission after an
// exponentially distributed think time drawn from the link's own stream.
func (mt *MultiTraffic) scheduleThink(lt *linkTraffic, class int, generation uint64) {
	think := mt.classes[class].Arrival.ThinkTime.Seconds()
	delay := sim.DurationSeconds(lt.link.Eng.RNG().Exponential(1 / think))
	sim.Schedule(lt.link.Eng, delay, func() {
		if !mt.started || generation != mt.generation {
			return
		}
		mt.submit(lt, class, true)
	})
}

// submit issues one CREATE request of the given class on the link, drawing
// the pair count and origin from the link's stream. Closed-loop submissions
// that are rejected synchronously re-enter the think cycle, so a full queue
// backs the population off instead of dropping sessions.
func (mt *MultiTraffic) submit(lt *linkTraffic, class int, closed bool) {
	c := &mt.classes[class]
	rng := lt.link.Eng.RNG()
	// Draw order is pairs, then origin; TestPoissonClassMatchesRecordedRuns
	// pins it, so poisson-section runs keep reproducing draw for draw.
	k := c.FixedPairs
	if k == 0 {
		k = c.MinPairs
		if c.MaxPairs > c.MinPairs {
			k += rng.Intn(c.MaxPairs - c.MinPairs + 1)
		}
	}
	role := roleA
	switch c.Origin {
	case workload.OriginB:
		role = roleB
	case workload.OriginRandom:
		if rng.Intn(2) == 1 {
			role = roleB
		}
	}
	acc := lt.accounts[class]
	acc.Offered++
	id, code := mt.net.Submit(lt.link, role, egp.CreateRequest{
		NumPairs:    k,
		Keep:        c.Keep(),
		MinFidelity: c.MinFidelity,
		MaxTime:     c.Deadline,
		Priority:    c.Priority,
		PurposeID:   uint16(1000 + c.Priority),
		Consecutive: c.Priority != egp.PriorityCK,
	})
	if code != wire.ErrNone {
		acc.Rejected++
		if code == wire.ErrLinkDown || code == wire.ErrNoRoute {
			// The link (or route to the peer) is administratively gone right
			// now — an outage-shaped reject, not a capacity one.
			acc.NoRoute++
		}
		if closed {
			mt.scheduleThink(lt, class, mt.generation)
		}
		return
	}
	acc.PairsRequested += uint64(k)
	lt.pending[requestKey(role, id)] = &pendingRequest{class: class, at: lt.link.Eng.Now(), closed: closed}
}

// handleOK accounts a delivered pair against its class and, when the request
// is done, completes it (and cycles its session for closed-loop classes).
// Runs on the link's own shard; events for requests the engine did not issue
// (e.g. standing primer requests) miss the pending table and are ignored.
func (mt *MultiTraffic) handleOK(lt *linkTraffic, ev egp.OKEvent) {
	key := requestKey(ev.Node, ev.CreateID)
	p, ok := lt.pending[key]
	if !ok {
		return
	}
	acc := lt.accounts[p.class]
	acc.Pairs++
	acc.TTP.Add(ev.At.Sub(ev.CreateTime).Seconds())
	if !ev.RequestDone {
		return
	}
	acc.Completed++
	delete(lt.pending, key)
	if p.closed {
		mt.scheduleThink(lt, p.class, mt.generation)
	}
}

// handleError accounts a failed request: deadline misses count into the
// class's timeout rate, link outages into the outage bucket (so fault-caused
// loss is never mistaken for queueing pressure), everything else as a
// failure. Closed-loop sessions re-enter the think cycle either way.
func (mt *MultiTraffic) handleError(lt *linkTraffic, ev egp.ErrorEvent) {
	key := requestKey(ev.Node, ev.CreateID)
	p, ok := lt.pending[key]
	if !ok {
		return
	}
	acc := lt.accounts[p.class]
	switch ev.Code {
	case wire.ErrTimeout:
		acc.TimedOut++
	case wire.ErrLinkDown:
		acc.Outage++
	default:
		acc.Failed++
	}
	delete(lt.pending, key)
	if p.closed {
		mt.scheduleThink(lt, p.class, mt.generation)
	}
}

// Accounts returns the per-class accounts merged across links in link
// order; call it after the run has finished. Sums and quantile sets are
// order-independent, so the result is identical at every shard count.
func (mt *MultiTraffic) Accounts() []*workload.ClassAccount {
	merged := make([]*workload.ClassAccount, len(mt.classes))
	for i := range merged {
		merged[i] = &workload.ClassAccount{}
	}
	for _, lt := range mt.links {
		for ci, a := range lt.accounts {
			merged[ci].Merge(a)
		}
	}
	return merged
}

// OldestWaits returns, per class, the age in seconds of the oldest request
// still outstanding (0 when none are). The max fold over the pending tables
// is order-independent.
func (mt *MultiTraffic) OldestWaits() []float64 {
	oldest := make([]float64, len(mt.classes))
	now := mt.net.Sim.Now()
	for _, lt := range mt.links {
		for _, p := range lt.pending {
			if w := now.Sub(p.at).Seconds(); w > oldest[p.class] {
				oldest[p.class] = w
			}
		}
	}
	return oldest
}

// SLO merges the per-link accounts and builds the per-class report;
// duration is the measured interval in simulated seconds. Deterministic at
// every shard count.
func (mt *MultiTraffic) SLO(duration float64) []workload.ClassSLO {
	return workload.BuildSLO(mt.classes, mt.Accounts(), mt.OldestWaits(), duration)
}

// AttachWorkload installs a multi-class workload engine; it starts and stops
// with the network. It replaces any previously attached workload.
func (nw *Network) AttachWorkload(classes []workload.ClassSpec) (*MultiTraffic, error) {
	mt, err := NewMultiTraffic(nw, classes)
	if err != nil {
		return nil, err
	}
	nw.traffic = mt
	return mt, nil
}
