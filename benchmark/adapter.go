package main

// adapter.go is the benchmark's whole coupling to the program under test: every
// call into repro/internal/... for building, driving and reading a network
// lives here (the layer drives in drive_*.go add one tight loop each). The
// surface is the one ROADMAP item 3 keeps — scenario.Parse/Compile/Attach,
// netsim.NewNetwork/Run/Stats/Attempts/Sharded, the OnLinkOK/OnLinkError and
// svc.OnOK/OnError hooks, network.NewService/Create/FinishAt — so a refactor
// behind it leaves the benchmark untouched. imports_test.go enforces the list.

import (
	"fmt"
	"time"

	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/wire"
)

// simNS is simulated time in nanoseconds since the start of a run; the rest of
// the benchmark never sees a sim.Time.
type simNS = int64

// codeOK is the terminal code of a request whose every pair was delivered;
// every other value is the program's wire.EGPError of the failure.
const codeOK = uint8(wire.ErrNone)

// request is one CREATE as its caller saw it: when it was issued, when it
// reached a terminal state, how it ended and what it delivered.
type request struct {
	// site is the link (link workloads) or flow (end-to-end workload) index.
	site int32
	// origin tells the two endpoints of a link apart (0 = A, 1 = B).
	origin uint8
	code   uint8
	pairs  int32
	// create is -1 when the request failed before delivering a pair: the
	// link-layer error event does not carry the CREATE time.
	create, terminal simNS
	// fidelity sums the ground-truth fidelity of the delivered pairs.
	fidelity float64
}

// siteLog is one site's share of the request log. Under the sharded engine a
// link's hooks fire on the goroutine of the shard owning it, so every link
// writes only its own siteLog.
type siteLog struct {
	open map[uint32]*request
	done []request
	// Pair-level tallies over the timed window (delivery time > windowStart).
	pairs    uint64
	fidelity float64
	swapLat  []float64 // end-to-end only: swap latency per pair, sim ms
}

// built is one network ready to run, with the benchmark's recorder attached.
type built struct {
	nw  *netsim.Network
	mt  *netsim.MultiTraffic // link workloads with traffic classes
	svc *network.Service     // end-to-end workload
	// sites is indexed by link ID (link workloads) or holds one entry for
	// the whole service (end to end, serial engine only).
	sites []*siteLog
	// windowStart separates warm-up from the timed window; it is written only
	// between runs.
	windowStart simNS
	transitions uint64 // link admin-state transitions observed
	trace       *obs.Tracer
	sharded     bool
	serialSim   *sim.Simulator
	created     uint64 // end to end: CREATEs the benchmark issued
}

// setupTimes are the benchmark's own spans over one build, in host seconds.
type setupTimes struct {
	parseCompile, netsimBuild, attach, networkBuild float64
}

// buildOptions are the only knobs a build takes besides spec and seed.
type buildOptions struct {
	// traced attaches the flight recorder and metrics registry through the
	// program's own Config.Trace/Config.Metrics fields.
	traced bool
	// endToEnd builds the network layer on top and makes the benchmark the
	// caller of CREATE.
	endToEnd bool
	// shards, when above 1, runs the spec on the sharded engine with that many
	// shards instead of the serial one; simulated results must not change.
	shards int
}

// traceRingCapacity is the per-(shard, layer) flight-recorder ring size of
// traced runs; older records are overwritten, which costs the same per record.
const traceRingCapacity = 1 << 16

// build goes from spec bytes to a network ready to run: parse, compile,
// netsim.NewNetwork, hooks, Attach and (end to end) network.NewService. The
// hooks go in before Attach because the workload engine chains to whatever
// handler is installed when it is attached.
func build(specJSON []byte, name string, seed int64, opt buildOptions, spans *spanLog) (*built, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	sp := spans.begin("scenario.parse")
	parsed, err := scenario.Parse(specJSON, name)
	sp.end()
	if err != nil {
		return nil, st, err
	}
	sp = spans.begin("scenario.compile")
	c, err := parsed.Compile()
	sp.end()
	if err != nil {
		return nil, st, err
	}
	st.parseCompile = time.Since(t0).Seconds()

	c.Config.Seed = seed
	if opt.shards > 1 {
		c.Config.Shards = opt.shards
	}
	b := &built{sharded: c.Config.Shards > 1}
	var registry *obs.Registry
	if opt.traced {
		shards := 1
		if b.sharded {
			shards = c.Config.Shards
		}
		b.trace = obs.NewTracer(shards, traceRingCapacity)
		registry = obs.NewRegistry()
		c.Config.Trace = b.trace
		c.Config.Metrics = registry
	}

	t0 = time.Now()
	sp = spans.begin("netsim.build")
	nw, err := netsim.NewNetwork(c.Config)
	sp.end()
	st.netsimBuild = time.Since(t0).Seconds()
	if err != nil {
		return nil, st, err
	}
	b.nw = nw
	if !b.sharded {
		b.serialSim, _ = nw.Sim.(*sim.Simulator)
	}

	if opt.endToEnd {
		t0 = time.Now()
		sp = spans.begin("network.build")
		cfg := network.DefaultConfig()
		cfg.Trace = b.trace
		cfg.Metrics = registry
		svc, err := network.NewService(nw, cfg)
		sp.end()
		st.networkBuild = time.Since(t0).Seconds()
		if err != nil {
			return nil, st, err
		}
		b.svc = svc
		b.sites = []*siteLog{{open: make(map[uint32]*request)}}
		svc.OnOK = b.onE2EOK
		svc.OnError = b.onE2EError
		// The service owns the state-change hook (it re-routes on it); count
		// transitions in front of it.
		prev := nw.OnLinkStateChange
		nw.OnLinkStateChange = func(l *netsim.Link, from, to netsim.LinkState) {
			b.transitions++
			if prev != nil {
				prev(l, from, to)
			}
		}
	} else {
		b.sites = make([]*siteLog, len(nw.Links))
		for i := range b.sites {
			b.sites[i] = &siteLog{open: make(map[uint32]*request)}
		}
		nw.OnLinkOK = b.onLinkOK
		nw.OnLinkError = b.onLinkError
	}

	t0 = time.Now()
	sp = spans.begin("scenario.attach")
	mt, err := c.Attach(nw)
	sp.end()
	st.attach = time.Since(t0).Seconds()
	if err != nil {
		return nil, st, err
	}
	b.mt = mt
	return b, st, nil
}

func originOf(role string) uint8 {
	if role == "B" {
		return 1
	}
	return 0
}

func (b *built) onLinkOK(l *netsim.Link, ev egp.OKEvent) {
	// Both endpoints report every pair; the request belongs to its origin.
	if !ev.OriginIsLocal {
		return
	}
	s := b.sites[l.ID]
	origin := originOf(ev.Node)
	key := uint32(origin)<<16 | uint32(ev.CreateID)
	r := s.open[key]
	if r == nil {
		r = &request{site: int32(l.ID), origin: origin, create: simNS(ev.CreateTime)}
		s.open[key] = r
	}
	r.pairs++
	r.fidelity += ev.Fidelity
	if simNS(ev.At) > b.windowStart {
		s.pairs++
		s.fidelity += ev.Fidelity
	}
	if ev.RequestDone {
		r.code = codeOK
		r.terminal = simNS(ev.At)
		s.done = append(s.done, *r)
		delete(s.open, key)
	}
}

func (b *built) onLinkError(l *netsim.Link, ev egp.ErrorEvent) {
	s := b.sites[l.ID]
	origin := originOf(ev.Node)
	key := uint32(origin)<<16 | uint32(ev.CreateID)
	r := s.open[key]
	if r == nil {
		r = &request{site: int32(l.ID), origin: origin, create: -1}
	} else {
		delete(s.open, key)
	}
	r.code = uint8(ev.Code)
	r.terminal = simNS(ev.At)
	s.done = append(s.done, *r)
}

func (b *built) onE2EOK(ev network.OKEvent) {
	s := b.sites[0]
	r := s.open[uint32(ev.RequestID)]
	if r == nil {
		return
	}
	r.pairs++
	r.fidelity += ev.Fidelity
	if simNS(ev.At) > b.windowStart {
		s.pairs++
		s.fidelity += ev.Fidelity
		s.swapLat = append(s.swapLat, float64(ev.SwapLatency)/1e6)
	}
	if ev.RequestDone {
		r.code = codeOK
		r.terminal = simNS(ev.At)
		s.done = append(s.done, *r)
		delete(s.open, uint32(ev.RequestID))
	}
}

func (b *built) onE2EError(ev network.ErrorEvent) {
	s := b.sites[0]
	key := uint32(ev.RequestID)
	r := s.open[key]
	if r == nil {
		// A synchronous reject: the error fires inside Create, before the
		// benchmark has seen the request ID.
		r = &request{create: simNS(ev.At)}
	} else {
		delete(s.open, key)
	}
	r.code = uint8(ev.Code)
	r.terminal = simNS(ev.At)
	s.done = append(s.done, *r)
}

// now is the network's simulated clock.
func (b *built) now() simNS { return simNS(b.nw.Sim.Now()) }

// runTo advances the network to the absolute simulated time t.
func (b *built) runTo(t simNS) {
	if d := t - b.now(); d > 0 {
		b.nw.Run(sim.Duration(d))
	}
}

// create issues one end-to-end CREATE at the current simulated time, as the
// caller of the service.
func (b *built) create(flow int, src, dst, pairs int, minFidelity float64, deadline simNS) {
	b.created++
	id, code := b.svc.Create(network.CreateRequest{
		SrcNode: src, DstNode: dst, NumPairs: pairs,
		MinFidelity: minFidelity, MaxTime: sim.Duration(deadline),
	})
	if code != wire.ErrNone {
		// onE2EError logged it from inside Create; attribute the flow.
		s := b.sites[0]
		s.done[len(s.done)-1].site = int32(flow)
		return
	}
	b.sites[0].open[uint32(id)] = &request{site: int32(flow), create: b.now()}
}

// finish closes the program's own measurement intervals at the current time.
func (b *built) finish() {
	if b.svc != nil {
		b.svc.FinishAt(b.nw.Sim.Now())
	}
}

// requests returns every request that reached a terminal state so far, and how
// many the recorder still holds open (those that delivered a pair but are not
// done; requests still queued without a pair are known only to the program).
func (b *built) requests() (done []request, open int) {
	for _, s := range b.sites {
		done = append(done, s.done...)
		open += len(s.open)
	}
	return done, open
}

// windowPairs returns the pairs delivered to their origin inside the timed
// window, their fidelity sum, and (end to end) their swap latencies in sim ms.
func (b *built) windowPairs() (pairs uint64, fidelity float64, swapLat []float64) {
	for _, s := range b.sites {
		pairs += s.pairs
		fidelity += s.fidelity
		swapLat = append(swapLat, s.swapLat...)
	}
	return pairs, fidelity, swapLat
}

// counters are the program's public counters, read after a run. They are
// cumulative since build; callers subtract a snapshot to get a window.
type counters struct {
	events, attempts uint64

	submitted, linkDowns uint64

	mhpAttempts                                uint64
	midMatched, midSuccess                     uint64
	midTimeMismatch, midQueueMismatch, midSolo uint64

	egpCreates, egpOKs, egpErrs, egpExpires uint64
	dqpRetransmits, dqpRejects              uint64
	qmmAllocs, qmmReleases, qmmHeld         uint64

	muxRouted, muxDropped uint64

	windows, crossMsgs uint64
	shardEvents        []uint64

	swaps, frames uint64
}

func (b *built) counters() counters {
	nw := b.nw
	c := counters{events: nw.Sim.Executed(), attempts: nw.Attempts()}
	for _, l := range nw.Links {
		c.submitted += l.Submitted
		c.linkDowns += l.Downs
		c.mhpAttempts += l.MHPA.Attempts()
		matched, ok, tm, qm, solo := l.Mid.Stats()
		c.midMatched += matched
		c.midSuccess += ok
		c.midTimeMismatch += tm
		c.midQueueMismatch += qm
		c.midSolo += solo
		for _, e := range []*egp.EGP{l.EGPA, l.EGPB} {
			creates, oks, errs, expSent, _ := e.Stats()
			c.egpCreates += creates
			c.egpOKs += oks
			c.egpErrs += errs
			c.egpExpires += expSent
			_, _, rej, retx := e.Queue().Stats()
			c.dqpRejects += rej
			c.dqpRetransmits += retx
			allocs, rel := e.QMM().Stats()
			c.qmmAllocs += allocs
			c.qmmReleases += rel
			// A reservation is held while the QMM reports the communication
			// qubit promised to an attempt but the device has not stored a
			// pair in it yet.
			if !e.QMM().CommAvailable() && e.QMM().Device().CommFree() {
				c.qmmHeld++
			}
		}
	}
	for _, n := range nw.Nodes {
		routed, dropped := n.Mux.Stats()
		c.muxRouted += routed
		c.muxDropped += dropped
	}
	if sh := nw.Sharded(); sh != nil {
		c.windows = sh.Windows()
		c.crossMsgs = sh.Merged()
		for i := 0; i < sh.Shards(); i++ {
			c.shardEvents = append(c.shardEvents, sh.Shard(i).Executed())
		}
	}
	if b.svc != nil {
		c.swaps = b.svc.Swaps()
		c.frames = b.svc.FramesSent()
	}
	return c
}

// programStats is what the program's own statistics paths report (the
// sort-for-quantile cost ROADMAP item 3 wants gone): the netsim link table,
// the workload SLO report and the end-to-end path table.
type programStats struct {
	queueDepthMean, queueDepthMax float64

	offered, rejected, completed, failed, inflight uint64

	e2eRequests, e2eCompleted, e2eFailed, noroute uint64
	reroutes, retries                             uint64
}

func (b *built) programStats(windowSeconds float64) programStats {
	var ps programStats
	_, agg := b.nw.Stats()
	ps.queueDepthMean, ps.queueDepthMax = agg.QueueMean, agg.QueueMax
	if b.mt != nil {
		for _, s := range b.mt.SLO(windowSeconds) {
			ps.offered += s.Offered
			ps.rejected += s.Rejected
			ps.completed += s.Completed
			ps.failed += s.TimedOut + s.Outage + s.Failed
			ps.inflight += s.Outstanding
		}
	}
	if b.svc != nil {
		_, e2e := b.svc.Stats()
		ps.e2eRequests, ps.e2eCompleted, ps.e2eFailed = e2e.Requests, e2e.Completed, e2e.Failed
		ps.noroute, ps.reroutes, ps.retries = e2e.NoRoute, e2e.Reroutes, e2e.Retries
	}
	return ps
}

// observeBatches installs the benchmark's batch observer on a serial traced
// run. netsim.NewNetwork already pointed the observer at the flight recorder;
// the simulator holds one observer, so this one keeps recording the same
// record and adds the tallies.
func (b *built) observeBatches(fn func(batchLen, pending int)) error {
	if b.serialSim == nil {
		return fmt.Errorf("batch observer needs the serial engine")
	}
	ring := b.trace.Ring(0, obs.LayerSim)
	b.serialSim.SetBatchObserver(func(at sim.Time, batchLen, pending int) {
		ring.Record(at, obs.KindBatch, 0, int64(batchLen), int64(pending))
		fn(batchLen, pending)
	})
	return nil
}

// observeWindows does the same for the barrier windows of a sharded run (the
// ring is nil, and recording a no-op, when the run is not traced); fn runs on
// the coordinating goroutine while the shards are parked.
func (b *built) observeWindows(fn func(merged int)) error {
	sh := b.nw.Sharded()
	if sh == nil {
		return fmt.Errorf("window observer needs the sharded engine")
	}
	ring := b.trace.Ring(0, obs.LayerSim)
	sh.SetWindowObserver(func(start, end sim.Time, merged int) {
		ring.Record(end, obs.KindWindow, obs.BarrierTrack, int64(merged), int64(end.Sub(start)))
		fn(merged)
	})
	return nil
}

// traceRecords is how many records the flight recorder took, kept or
// overwritten.
func (b *built) traceRecords() uint64 {
	if b.trace == nil {
		return 0
	}
	return uint64(len(b.trace.Records())) + b.trace.Dropped()
}
