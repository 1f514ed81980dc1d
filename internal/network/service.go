// Package network is the network layer above netsim's link layer: it
// delivers end-to-end entangled pairs between arbitrary node pairs of a
// multi-link topology. A Router computes paths with a pluggable link cost
// (shortest-path baseline, fidelity- or rate-aware alternatives); a per-node
// swap engine consumes held create-and-keep pairs from each hop's EGP stack
// and joins adjacent segments by entanglement swapping — an exact Bell-state
// measurement on the repeater node's two qubits using internal/quantum
// density-matrix arithmetic — signalling the Pauli-frame correction to the
// segment ends over the classical node-to-node channels; and a CREATE-style
// request API mirrors the paper's link-layer service interface end to end
// (fidelity floor, deadline, priority) with per-request statekeeping,
// timeouts and metrics.
//
// Everything runs on the one deterministic simulator of the underlying
// netsim network, so end-to-end runs stay byte-reproducible for a fixed
// seed. Network-layer frames ride the shared node-to-node channels under a
// reserved mux tag and are forwarded hop by hop along the request's path;
// like the MHP layer they carry in-memory structs (a wire encoding is
// deliberately out of scope — the channels provide delay, ordering and loss,
// which is what the protocol logic observes).
//
// Classical frame loss is survived with bounded resources rather than full
// reliability: swap-notify frames are retransmitted until both segment ends
// are informed (a request whose frames keep vanishing fails after the retry
// budget), and link pairs stranded by a lost midpoint REPLY are reaped after
// pendingPairDeadline — the held qubit is released and a replacement link
// CREATE re-offers the hop. Under loss, delivery therefore costs retries and
// queueing; callers that need bounded completion should set MaxTime, which
// fails the request with TIMEOUT and releases everything it still holds.
package network

import (
	"fmt"
	"math"

	"repro/internal/classical"
	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// RequestID identifies one end-to-end entanglement request.
type RequestID uint64

// NetworkPurposeID tags the link-layer CREATEs issued by the network layer.
const NetworkPurposeID uint16 = 0x4E4C // "NL"

// CreateRequest mirrors the paper's link-layer CREATE semantics end to end:
// the higher layer asks for NumPairs entangled pairs between two (not
// necessarily adjacent) nodes, above a delivered-fidelity floor, optionally
// within a deadline.
type CreateRequest struct {
	SrcNode, DstNode int
	NumPairs         int
	// MinFidelity is the end-to-end delivered fidelity floor; the service
	// inverts it through the swap composition rule into the per-hop floor it
	// demands from every link.
	MinFidelity float64
	// MaxTime is the request deadline (0 = none): requests not completed in
	// time fail with TIMEOUT and release every held qubit.
	MaxTime sim.Duration
	// Priority is the egp priority lane used for the per-hop CREATEs
	// (default PriorityNL, the paper's network-layer lane).
	Priority int
}

// OKEvent reports one delivered end-to-end pair.
type OKEvent struct {
	RequestID RequestID
	Src, Dst  int
	Hops      int
	// Fidelity is the true delivered fidelity with |Ψ+⟩ (simulation ground
	// truth); Predicted is the closed-form Werner composition of the
	// consumed link-pair fidelities (and swap-gate factors), the network
	// layer's analogue of the link layer's Goodness estimate.
	Fidelity  float64
	Predicted float64
	// SwapLatency is delivery time minus the moment the last constituent
	// link pair was ready: the pure swapping-and-signalling overhead.
	SwapLatency sim.Duration
	// PairLatency is delivery time minus request submission.
	PairLatency    sim.Duration
	PairsRemaining int
	RequestDone    bool
	At             sim.Time
}

// ErrorEvent reports an end-to-end request failure.
type ErrorEvent struct {
	RequestID RequestID
	Src, Dst  int
	Code      wire.EGPError
	At        sim.Time
}

// Config selects the network layer's policies.
type Config struct {
	// Cost is the routing metric (nil = CostHops).
	Cost CostFunc
	// SwapGateFidelity models the repeater's Bell-state measurement as a
	// depolarising channel of this fidelity on each measured qubit (1 =
	// ideal BSM).
	SwapGateFidelity float64
	// Trace, when non-nil, records end-to-end request lifecycles —
	// CREATE, per-segment readiness, swaps, Pauli corrections, delivered
	// pairs and the final OK/TIMEOUT — as spans in the flight recorder's
	// network-layer ring (track = request ID). Usually the same tracer as
	// netsim.Config.Trace. Nil disables recording at zero cost.
	Trace *obs.Tracer
	// Metrics, when non-nil, publishes end-to-end counters and per-class
	// time-to-pair histograms ("e2e.ttp_ns.<class>").
	Metrics *obs.Registry
}

// DefaultConfig returns the policies used by the end-to-end experiments:
// shortest-path routing and an ideal BSM.
func DefaultConfig() Config {
	return Config{SwapGateFidelity: 1}
}

// hopKey identifies one link-layer CREATE issued by the service: the link,
// the role of the originating endpoint and its CreateID.
type hopKey struct {
	link       netsim.LinkID
	originRole string
	createID   uint16
}

// requestState is the per-request bookkeeping of the service.
type requestState struct {
	id   RequestID
	req  CreateRequest
	path Path
	// pos maps a path node to its index in path.Nodes, for hop-by-hop frame
	// forwarding.
	pos         map[int]int
	linkFloor   float64
	pairsLeft   int
	segs        []*segment
	submittedAt sim.Time
	// lastPairAt is when the previous pair was delivered (submission time
	// until the first delivery); it feeds the per-pair production-time
	// (time-to-pair) series.
	lastPairAt sim.Time
	timeout    sim.EventID
	hasTimeout bool
	done       bool
	failed     bool
	// hopOKCount counts down the link-layer OKs still expected per hop
	// CREATE (two per pair, one from each endpoint); a hop whose CREATE has
	// delivered them all retires its hopOwner entry, and once the request is
	// finished and every hop retired the whole request state is forgotten
	// (see maybeForget). openHops counts unretired hop CREATEs, including
	// replacements issued for abandoned pairs.
	hopOKCount map[hopKey]int
	openHops   int
	// agg is the per-path stats bucket the request was accounted against at
	// submission; rerouted requests keep reporting into their original bucket
	// (path churn is visible through the reroute counters instead).
	agg *pathAgg
	// stale marks hop CREATEs abandoned by a reroute: their link-layer OKs
	// still count down the retirement bookkeeping, but their pairs are
	// released on arrival instead of feeding the swap engine.
	stale map[hopKey]bool
	// reroutes counts completed re-paths, retries counts backoff attempts
	// (including ones that then found no path), rerouting guards against
	// scheduling two concurrent repath timers.
	reroutes  uint64
	retries   uint64
	rerouting bool
}

func (r *requestState) finished() bool { return r.done || r.failed }

// Service is the network layer of one netsim network: router, per-node swap
// engines and the end-to-end request table.
type Service struct {
	nw     *netsim.Network
	cfg    Config
	router *Router

	nextID   RequestID
	requests map[RequestID]*requestState
	hopOwner map[hopKey]RequestID
	// pendingLink holds link segments whose two endpoint OKs have not both
	// arrived yet, keyed by the shared pair object.
	pendingLink map[*nv.EntangledPair]*segment
	// nodeSegs[n] holds the ready segments terminating at node n, per
	// request, in arrival order.
	nodeSegs []map[RequestID][]*segment

	// end closes the measured interval (FinishAt); it starts at time 0.
	end      sim.Time
	aggs     map[string]*pathAgg
	aggOrder []string

	swaps      uint64
	framesSent uint64
	// noPathRejects counts CREATEs rejected synchronously because no route
	// existed at all (no path bucket to account them against).
	noPathRejects uint64

	// Flight-recorder ring and metric handles; all nil when observability is
	// off (every use is nil-safe).
	trace     *obs.Ring
	ttp       *obs.ClassHistograms
	cOKs      *obs.Counter
	cFails    *obs.Counter
	cSwapCnt  *obs.Counter
	cReroutes *obs.Counter
	cNoRoute  *obs.Counter

	// OnOK and OnError observe deliveries and failures.
	OnOK    func(OKEvent)
	OnError func(ErrorEvent)
}

// NewService builds the network layer over a netsim network. The network
// must be configured with HoldPairs (the swap engine owns delivered
// create-and-keep qubits until it consumes them) and must not have another
// OnLinkOK consumer installed.
func NewService(nw *netsim.Network, cfg Config) (*Service, error) {
	if nw.Sharded() != nil {
		// The service's request/segment/hop state is global (one map set
		// spanning every node), and its link-OK handlers fire on whichever
		// shard owns the link — running it sharded would race and break
		// determinism. Keeping routing/state dissemination shard-local is
		// ROADMAP future work; until then the end-to-end layer requires the
		// serial engine.
		return nil, fmt.Errorf("network: the end-to-end service requires the serial engine (netsim.Config.Shards ≤ 1); its request state is network-global")
	}
	if !nw.Config.HoldPairs {
		return nil, fmt.Errorf("network: netsim must run with HoldPairs for the swap engine to consume pairs")
	}
	if cfg.SwapGateFidelity <= 0 || cfg.SwapGateFidelity > 1 {
		return nil, fmt.Errorf("network: swap gate fidelity %g out of (0,1]", cfg.SwapGateFidelity)
	}
	s := &Service{
		nw:          nw,
		cfg:         cfg,
		router:      NewRouter(nw, cfg.Cost),
		requests:    make(map[RequestID]*requestState),
		hopOwner:    make(map[hopKey]RequestID),
		pendingLink: make(map[*nv.EntangledPair]*segment),
		nodeSegs:    make([]map[RequestID][]*segment, len(nw.Nodes)),
		aggs:        make(map[string]*pathAgg),
	}
	for i := range s.nodeSegs {
		s.nodeSegs[i] = make(map[RequestID][]*segment)
	}
	// The service only runs on the serial engine (checked above), so all its
	// records go to shard 0's network-layer ring.
	s.trace = cfg.Trace.Ring(0, obs.LayerNetwork)
	if cfg.Metrics != nil {
		s.ttp = obs.NewClassHistograms(cfg.Metrics, "e2e.ttp_ns")
		s.cOKs = cfg.Metrics.Counter("e2e.oks")
		s.cFails = cfg.Metrics.Counter("e2e.fails")
		s.cSwapCnt = cfg.Metrics.Counter("e2e.swaps")
		s.cReroutes = cfg.Metrics.Counter("e2e.reroutes")
		s.cNoRoute = cfg.Metrics.Counter("e2e.noroute")
	}
	nw.OnLinkOK = s.handleLinkOK
	nw.OnLinkError = s.handleLinkError
	nw.OnLinkStateChange = s.handleLinkStateChange
	for i := range nw.Nodes {
		node := i
		if err := nw.RegisterNetworkHandler(node, func(m classical.Message) { s.handleFrame(node, m) }); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Router exposes the service's router (for CLIs printing chosen paths).
func (s *Service) Router() *Router { return s.router }

// Swaps returns how many entanglement swaps the engine has performed.
func (s *Service) Swaps() uint64 { return s.swaps }

// FramesSent returns how many network-layer frame transmissions (including
// per-hop forwards) the service has issued.
func (s *Service) FramesSent() uint64 { return s.framesSent }

// Create submits an end-to-end entanglement request. It returns the assigned
// request ID and an immediate error code: ErrNone when the request was
// accepted, ErrNoRoute when no usable route exists or the fidelity floor is
// infeasible on every route, ErrUnsupported when the deadline cannot be met
// even in expectation. Synchronous no-route rejects are counted separately
// (PathStats.NoRoute) from asynchronous failures.
func (s *Service) Create(req CreateRequest) (RequestID, wire.EGPError) {
	id := s.nextID
	s.nextID++
	if req.NumPairs <= 0 {
		req.NumPairs = 1
	}
	if req.Priority <= 0 || req.Priority >= egp.NumQueues {
		req.Priority = egp.PriorityNL
	}
	now := s.nw.Sim.Now()

	path, err := s.router.Path(req.SrcNode, req.DstNode)
	if err != nil {
		// No resolvable path (disconnected, or every route crosses a down
		// link), so no per-path bucket to account this against; the reject is
		// counted in the aggregate row's NoRoute column.
		s.noPathRejects++
		s.cNoRoute.Inc()
		s.emitError(id, req, wire.ErrNoRoute, now)
		return id, wire.ErrNoRoute
	}
	// Synchronous rejects on a resolved path count as offered in that path's
	// statistics, so rejected traffic is visible in the tables; no-route
	// rejects (fidelity floor infeasible) have their own column, distinct
	// from asynchronous failures.
	linkFloor := PerHopFidelityFloor(req.MinFidelity, path.Hops(), s.cfg.SwapGateFidelity)
	for _, l := range path.Links {
		if _, ok := l.EGPA.FEU().AlphaForFidelity(linkFloor); !ok {
			agg := s.aggFor(path)
			agg.requests++
			agg.noRoute++
			s.cNoRoute.Inc()
			s.emitError(id, req, wire.ErrNoRoute, now)
			return id, wire.ErrNoRoute
		}
	}
	if req.MaxTime > 0 {
		est := EstimatePathSeconds(path, req.NumPairs, linkFloor)
		if math.IsInf(est, 1) || est > req.MaxTime.Seconds() {
			agg := s.aggFor(path)
			agg.requests++
			agg.failed++
			s.emitError(id, req, wire.ErrUnsupported, now)
			return id, wire.ErrUnsupported
		}
	}

	r := &requestState{
		id:          id,
		req:         req,
		path:        path,
		pos:         make(map[int]int, len(path.Nodes)),
		linkFloor:   linkFloor,
		pairsLeft:   req.NumPairs,
		submittedAt: now,
		lastPairAt:  now,
		hopOKCount:  make(map[hopKey]int, path.Hops()),
	}
	for i, n := range path.Nodes {
		r.pos[n] = i
	}
	r.agg = s.aggFor(path)
	s.requests[id] = r
	s.trace.Record(now, obs.KindE2ECreate, uint64(id), int64(req.SrcNode), int64(req.DstNode))
	r.agg.requests++

	// One link-layer CREATE per hop, originated at the hop's path-upstream
	// endpoint. The per-hop requests have no own deadline; the service-level
	// timeout below owns request expiry.
	for i, l := range path.Links {
		if code := s.submitHopCreate(r, l, path.Nodes[i], req.NumPairs); code != wire.ErrNone {
			s.failRequest(r, code)
			return id, code
		}
	}
	if req.MaxTime > 0 {
		r.hasTimeout = true
		r.timeout = sim.Schedule(s.nw.Sim, req.MaxTime, func() { s.failRequest(r, wire.ErrTimeout) })
	}
	return id, wire.ErrNone
}

// submitHopCreate issues one link-layer create-and-keep CREATE for a hop of
// the request (numPairs pairs, originated at the hop's path-upstream
// endpoint) and registers its ownership bookkeeping.
func (s *Service) submitHopCreate(r *requestState, l *netsim.Link, upNode, numPairs int) wire.EGPError {
	role := roleOf(l, upNode)
	createID, code := s.nw.Submit(l, role, egp.CreateRequest{
		NumPairs:    numPairs,
		Keep:        true,
		MinFidelity: r.linkFloor,
		Priority:    r.req.Priority,
		PurposeID:   NetworkPurposeID,
	})
	if code != wire.ErrNone {
		return code
	}
	key := hopKey{link: l.ID, originRole: role, createID: createID}
	s.hopOwner[key] = r.id
	r.hopOKCount[key] = 2 * numPairs
	r.openHops++
	return wire.ErrNone
}

// roleOf maps a link endpoint node to its per-link protocol role.
func roleOf(l *netsim.Link, node int) string {
	if node == l.Edge.B {
		return "B"
	}
	return "A"
}

// emitError reports a request failure to the subscriber.
func (s *Service) emitError(id RequestID, req CreateRequest, code wire.EGPError, at sim.Time) {
	if s.OnError != nil {
		s.OnError(ErrorEvent{RequestID: id, Src: req.SrcNode, Dst: req.DstNode, Code: code, At: at})
	}
}

// failRequest terminates a request: every held qubit of its live segments is
// released, its engine state is dropped, and the failure is reported. Pairs
// still in flight at the link layer are released as their OKs arrive.
func (s *Service) failRequest(r *requestState, code wire.EGPError) {
	if r.finished() {
		return
	}
	r.failed = true
	if r.hasTimeout {
		r.timeout.Cancel()
	}
	for _, sg := range r.segs {
		if sg.consumed || sg.delivered {
			continue
		}
		// Release both ends; Release is a no-op on devices that never stored
		// (or already dropped) this pair.
		sg.devA.Release(sg.pair)
		sg.devB.Release(sg.pair)
	}
	for _, n := range r.path.Nodes {
		delete(s.nodeSegs[n], r.id)
	}
	agg := s.pathAggFor(r)
	agg.failed++
	agg.reroutes += r.reroutes
	agg.retries += r.retries
	s.trace.Record(s.nw.Sim.Now(), obs.KindE2EFail, uint64(r.id), int64(r.req.NumPairs-r.pairsLeft), int64(code))
	s.cFails.Inc()
	s.emitError(r.id, r.req, code, s.nw.Sim.Now())
	s.maybeForget(r)
}

// maybeForget garbage-collects a request once it is finished AND every hop
// CREATE has delivered (and thereby retired) all its link-layer OKs: only
// then can no further event reference the request through the lookup maps.
// This keeps requests/hopOwner/pendingLink bounded over long runs and, more
// importantly, retires hopOwner keys before the link layer's uint16 CreateID
// counter can wrap around onto them. Hops whose REPLYs were lost (under
// classical loss) retire late or never; those entries are the price of
// releasing their pairs whenever they do straggle in.
func (s *Service) maybeForget(r *requestState) {
	if !r.finished() || r.openHops != 0 {
		return
	}
	delete(s.requests, r.id)
	for _, sg := range r.segs {
		delete(s.pendingLink, sg.pair)
	}
}

// deliver hands a src–dst segment to the requester: decoherence is advanced
// to now at both ends, the delivered fidelity is read out, the qubits are
// released and the metrics updated.
func (s *Service) deliver(sg *segment) {
	r := sg.req
	if r.finished() || sg.delivered {
		return
	}
	now := s.nw.Sim.Now()
	sg.devA.ApplyDecoherence(sg.pair, sg.sideA, now)
	sg.devB.ApplyDecoherence(sg.pair, sg.sideB, now)
	fid := sg.pair.Fidelity()
	sg.devA.Release(sg.pair)
	sg.devB.Release(sg.pair)
	sg.delivered = true

	if r.pairsLeft > 0 {
		r.pairsLeft--
	}
	done := r.pairsLeft == 0
	s.trace.Record(now, obs.KindE2EOK, uint64(r.id), int64(r.req.NumPairs-r.pairsLeft), int64(r.req.NumPairs))
	s.cOKs.Inc()
	s.ttp.Observe(r.req.Priority, now.Sub(r.submittedAt))
	agg := s.pathAggFor(r)
	agg.pairs++
	agg.fidelity.Add(fid)
	agg.predicted.Add(sg.predicted)
	agg.swapLatency.Add(now.Sub(sg.linkReadyAt).Seconds())
	agg.pairLatency.Add(now.Sub(r.submittedAt).Seconds())
	agg.ttp.Add(now.Sub(r.lastPairAt).Seconds())
	r.lastPairAt = now
	if done {
		r.done = true
		if r.hasTimeout {
			r.timeout.Cancel()
		}
		s.trace.Record(now, obs.KindE2EDone, uint64(r.id), int64(r.req.NumPairs), 0)
		agg.completed++
		agg.reroutes += r.reroutes
		agg.retries += r.retries
		for _, n := range r.path.Nodes {
			delete(s.nodeSegs[n], r.id)
		}
		s.maybeForget(r)
	}
	if s.OnOK != nil {
		s.OnOK(OKEvent{
			RequestID:      r.id,
			Src:            r.req.SrcNode,
			Dst:            r.req.DstNode,
			Hops:           r.path.Hops(),
			Fidelity:       fid,
			Predicted:      sg.predicted,
			SwapLatency:    now.Sub(sg.linkReadyAt),
			PairLatency:    now.Sub(r.submittedAt),
			PairsRemaining: r.pairsLeft,
			RequestDone:    done,
			At:             now,
		})
	}
}

// FinishAt closes the measured interval the path throughputs are rated over.
func (s *Service) FinishAt(t sim.Time) { s.end = t }
