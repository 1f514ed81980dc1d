package netsim

import (
	"fmt"

	"repro/internal/egp"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// MultiTraffic is the one request engine of both layers: each traffic class
// owns, per site, an open-loop arrival process (Poisson, bursty, diurnal) or a
// population of closed-loop think-time sessions, plus a per-site SLO account.
// A site is a link of the network (AttachWorkload) or a (src, dst) flow of the
// end-to-end service (network.Service.AttachWorkload); the engine treats both
// alike. All of a site's workload state — arrival processes, session timers,
// in-flight request table, account — lives on the site's own engine view and
// is touched only by that shard's events, so the trajectory and the merged
// SLO report are byte-identical at every shard count.
//
// It drives every spec, the benchmark and the paper's runners
// (internal/experiments), which keep the paper's request sizes ∝ 1/k with
// one fixed-size class per size (workload.SingleKind).
type MultiTraffic struct {
	clock   sim.Engine
	classes []workload.ClassSpec
	sites   []*siteTraffic

	started    bool
	generation uint64
}

// Site is one place MultiTraffic offers load.
type Site struct {
	// Eng is the engine view the site's arrivals, session timers and draws
	// run on.
	Eng sim.Engine
	// Rate returns the open-loop request rate, in requests per simulated
	// second, of a load-driven class at the site.
	Rate func(c *workload.ClassSpec) float64
	// Submit issues one request of class c for the given pair count. It
	// returns the key the request's terminal events carry (see Delivered
	// and Failed) and the synchronous response code.
	Submit func(c *workload.ClassSpec, pairs int) (key uint64, code wire.EGPError)
}

// siteTraffic is one site's slice of the workload: per-class arrival
// processes, session counts, the in-flight request table and accounts. It is
// mutated only from the owning shard's events.
type siteTraffic struct {
	Site
	// procs[c] is class c's open-loop arrival process at this site (nil for
	// closed-loop classes and never-firing for infeasible rates).
	procs []workload.Process
	// sessions[c] is class c's closed-loop session population at this site.
	sessions []int
	// accounts[c] is class c's local SLO account.
	accounts []*workload.ClassAccount
	// pending maps a submitted request's key to its bookkeeping. Entries are
	// removed on the terminal OK or error event.
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

// AttachSites installs a multi-class workload engine over the given sites;
// it starts and stops with the network and replaces any previously attached
// workload. Open-loop rates come from each site's Rate for Load-driven
// classes and split the aggregate Users x PerUserRate evenly across sites for
// population-driven ones; closed-loop session populations are distributed
// across sites round-robin. The caller routes the sites' terminal events to
// Delivered and Failed.
func (nw *Network) AttachSites(classes []workload.ClassSpec, sites []Site) (*MultiTraffic, error) {
	if len(classes) == 0 || len(sites) == 0 {
		return nil, fmt.Errorf("netsim: workload needs at least one traffic class and one site")
	}
	for _, c := range classes {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	mt := &MultiTraffic{clock: nw.Sim, classes: classes}
	n := len(sites)
	for si, site := range sites {
		st := &siteTraffic{
			Site:     site,
			procs:    make([]workload.Process, len(classes)),
			sessions: make([]int, len(classes)),
			accounts: make([]*workload.ClassAccount, len(classes)),
			pending:  make(map[uint64]*pendingRequest),
		}
		for ci := range classes {
			c := &classes[ci]
			st.accounts[ci] = &workload.ClassAccount{}
			if c.Arrival.Closed() {
				// Round-robin distribution: site si serves session s iff
				// s ≡ si (mod n), so populations that don't divide evenly
				// still land deterministically.
				st.sessions[ci] = c.Arrival.Sessions / n
				if si < c.Arrival.Sessions%n {
					st.sessions[ci]++
				}
				continue
			}
			var rate float64
			if c.Arrival.Load > 0 {
				rate = site.Rate(c)
			} else {
				rate = float64(c.Arrival.Users) * c.Arrival.PerUserRate / float64(n)
			}
			class := ci
			st.procs[ci] = workload.NewProcess(site.Eng, rate, c.Arrival, func() { mt.submit(st, class, false) })
		}
		mt.sites = append(mt.sites, st)
	}
	nw.traffic = mt
	return mt, nil
}

// AttachWorkload installs a multi-class workload engine with one site per
// link, chaining its accounting onto the network's link-event hooks
// (preserving any observer already installed, e.g. the network layer's
// held-pair consumer). A link's Load-driven rate follows the paper's arrival
// model (workload.RatePerSecond); each request's origin is drawn after its
// pair count, from the link's stream.
func (nw *Network) AttachWorkload(classes []workload.ClassSpec) (*MultiTraffic, error) {
	sites := make([]Site, len(nw.Links))
	for i, l := range nw.Links {
		sites[i] = nw.linkSite(l)
	}
	mt, err := nw.AttachSites(classes, sites)
	if err != nil {
		return nil, err
	}
	// Links are numbered by their index in nw.Links, which is also their
	// site index.
	prevOK := nw.OnLinkOK
	nw.OnLinkOK = func(l *Link, ev egp.OKEvent) {
		if prevOK != nil {
			prevOK(l, ev)
		}
		if ev.OriginIsLocal {
			mt.Delivered(int(l.ID), requestKey(ev.Node, ev.CreateID), ev.At.Sub(ev.CreateTime), ev.RequestDone)
		}
	}
	prevErr := nw.OnLinkError
	nw.OnLinkError = func(l *Link, ev egp.ErrorEvent) {
		if prevErr != nil {
			prevErr(l, ev)
		}
		mt.Failed(int(l.ID), requestKey(ev.Node, ev.CreateID), ev.Code)
	}
	return mt, nil
}

// linkSite is the workload site of one link: its engine view, the paper's
// arrival rate and a CREATE from the class's origin endpoint.
func (nw *Network) linkSite(l *Link) Site {
	return Site{
		Eng: l.Eng,
		Rate: func(c *workload.ClassSpec) float64 {
			return workload.RatePerSecond(l.EGPA.FEU(), nw.Platform, c.Keep(), c.Arrival.Load, c.MinFidelity, c.MeanPairs())
		},
		Submit: func(c *workload.ClassSpec, pairs int) (uint64, wire.EGPError) {
			role := roleA
			switch c.Origin {
			case workload.OriginB:
				role = roleB
			case workload.OriginRandom:
				if l.Eng.RNG().Intn(2) == 1 {
					role = roleB
				}
			}
			id, code := nw.Submit(l, role, egp.CreateRequest{
				NumPairs:    pairs,
				Keep:        c.Keep(),
				MinFidelity: c.MinFidelity,
				MaxTime:     c.Deadline,
				Priority:    c.Priority,
				PurposeID:   uint16(1000 + c.Priority),
				Consecutive: c.Priority != egp.PriorityCK,
			})
			return requestKey(role, id), code
		},
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
	for _, st := range mt.sites {
		// A request still in flight from before a Stop cycles its session
		// when it completes, so only the idle sessions are topped up.
		busy := make([]int, len(mt.classes))
		for _, p := range st.pending {
			if p.closed {
				busy[p.class]++
			}
		}
		for ci := range mt.classes {
			if p := st.procs[ci]; p != nil {
				p.Start()
			}
			// Sessions begin with a think pause rather than a synchronized
			// burst at t=0: each draws its own exponential offset from the
			// site's stream, staggering the population deterministically.
			for s := busy[ci]; s < st.sessions[ci]; s++ {
				mt.scheduleThink(st, ci, mt.generation)
			}
		}
	}
}

// Stop halts open-loop arrivals and session cycles; already-scheduled events
// die on the generation check.
func (mt *MultiTraffic) Stop() {
	mt.started = false
	for _, st := range mt.sites {
		for _, p := range st.procs {
			if p != nil {
				p.Stop()
			}
		}
	}
}

// scheduleThink schedules a closed-loop session's next submission after an
// exponentially distributed think time drawn from the site's own stream.
func (mt *MultiTraffic) scheduleThink(st *siteTraffic, class int, generation uint64) {
	think := mt.classes[class].Arrival.ThinkTime.Seconds()
	delay := sim.DurationSeconds(st.Eng.RNG().Exponential(1 / think))
	sim.Schedule(st.Eng, delay, func() {
		if !mt.started || generation != mt.generation {
			return
		}
		mt.submit(st, class, true)
	})
}

// submit issues one request of the given class at the site, drawing the pair
// count from the site's stream. Closed-loop submissions that are rejected
// synchronously re-enter the think cycle, so a full queue backs the
// population off instead of dropping sessions.
func (mt *MultiTraffic) submit(st *siteTraffic, class int, closed bool) {
	c := &mt.classes[class]
	// The pair count is drawn before the site's own draws (a link's origin);
	// TestPoissonClassMatchesRecordedRuns and TestE2EClassMatchesRecordedRuns
	// pin the order.
	k := c.FixedPairs
	if k == 0 {
		k = c.MinPairs
		if c.MaxPairs > c.MinPairs {
			k += st.Eng.RNG().Intn(c.MaxPairs - c.MinPairs + 1)
		}
	}
	acc := st.accounts[class]
	acc.Offered++
	key, code := st.Submit(c, k)
	if code != wire.ErrNone {
		acc.Rejected++
		if code == wire.ErrLinkDown || code == wire.ErrNoRoute {
			// The link (or route to the peer) is administratively gone right
			// now — an outage-shaped reject, not a capacity one.
			acc.NoRoute++
		}
		if closed {
			mt.scheduleThink(st, class, mt.generation)
		}
		return
	}
	acc.PairsRequested += uint64(k)
	st.pending[key] = &pendingRequest{class: class, at: st.Eng.Now(), closed: closed}
}

// Delivered accounts one pair delivered latency after its request's
// submission against its class and, when the request is done, completes it
// (and cycles its session for closed-loop classes). It runs on the site's own
// shard; events for requests the engine did not issue (e.g. standing primer
// requests, synchronous rejects) miss the pending table and are ignored.
func (mt *MultiTraffic) Delivered(site int, key uint64, latency sim.Duration, done bool) {
	st := mt.sites[site]
	p, ok := st.pending[key]
	if !ok {
		return
	}
	acc := st.accounts[p.class]
	acc.Pairs++
	acc.TTP.Add(latency.Seconds())
	if !done {
		return
	}
	acc.Completed++
	delete(st.pending, key)
	if p.closed {
		mt.scheduleThink(st, p.class, mt.generation)
	}
}

// Failed accounts a failed request: deadline misses count into the class's
// timeout rate, link outages into the outage bucket (so fault-caused loss is
// never mistaken for queueing pressure), everything else as a failure.
// Closed-loop sessions re-enter the think cycle either way.
func (mt *MultiTraffic) Failed(site int, key uint64, code wire.EGPError) {
	st := mt.sites[site]
	p, ok := st.pending[key]
	if !ok {
		return
	}
	acc := st.accounts[p.class]
	switch code {
	case wire.ErrTimeout:
		acc.TimedOut++
	case wire.ErrLinkDown:
		acc.Outage++
	default:
		acc.Failed++
	}
	delete(st.pending, key)
	if p.closed {
		mt.scheduleThink(st, p.class, mt.generation)
	}
}

// Accounts returns the per-class accounts merged across sites in site
// order; call it after the run has finished. Sums and quantile sets are
// order-independent, so the result is identical at every shard count.
func (mt *MultiTraffic) Accounts() []*workload.ClassAccount {
	merged := make([]*workload.ClassAccount, len(mt.classes))
	for i := range merged {
		merged[i] = &workload.ClassAccount{}
	}
	for _, st := range mt.sites {
		for ci, a := range st.accounts {
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
	now := mt.clock.Now()
	for _, st := range mt.sites {
		for _, p := range st.pending {
			if w := now.Sub(p.at).Seconds(); w > oldest[p.class] {
				oldest[p.class] = w
			}
		}
	}
	return oldest
}

// SLO merges the per-site accounts and builds the per-class report;
// duration is the measured interval in simulated seconds. Deterministic at
// every shard count.
func (mt *MultiTraffic) SLO(duration float64) []workload.ClassSLO {
	return workload.BuildSLO(mt.classes, mt.Accounts(), mt.OldestWaits(), duration)
}
