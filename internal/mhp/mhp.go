// Package mhp implements the physical-layer Midpoint Heralding Protocol of
// Section 5.1: the node-side protocol that polls the link layer every MHP
// cycle, triggers entanglement generation attempts and forwards midpoint
// replies upwards, and the midpoint (heralding station) service that matches
// GEN frames from the two nodes, performs the optical Bell-state
// measurement, and announces the outcome.
//
// The cycle is kept by one Clock per engine, which polls the nodes that have
// work. A node polls only while its link layer has something queued or
// outstanding, or a reply is still due; an idle node parks until the link
// layer wakes it, since its poll would be a no-op (see Clock for why the run
// is unchanged).
//
// On a link with equal arms (every Lab link) a failed attempt costs two
// events beside the clock's tick: one delivers both GENs of the cycle, B's
// riding A's delivery event (Node.runCycle), and one both REPLYs
// (Midpoint.sendReplies). Over unequal arms, such as QL2020's, each GEN and
// each REPLY has its own event.
//
// The package is deliberately stateless on the node side (beyond the pending
// attempt bookkeeping required to route replies), mirroring the paper's
// requirement that the physical layer holds no protocol state.
package mhp

import (
	"fmt"
	"slices"

	"repro/internal/classical"
	"repro/internal/nv"
	"repro/internal/obs"
	"repro/internal/photonics"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
)

// PollDecision is the link layer's answer to the per-cycle trigger poll
// (the "yes/no + parameters" of Figure 4).
type PollDecision struct {
	Attempt bool
	// QueueID identifies the distributed-queue item this attempt serves; it
	// is transmitted to the midpoint for consistency checking.
	QueueID wire.AbsoluteQueueID
	// Keep is true for create-and-keep (K) attempts, false for
	// measure-directly (M).
	Keep bool
	// Alpha is the bright-state population to use.
	Alpha float64
	// MeasureBasis is the basis for M attempts (0=Z,1=X,2=Y).
	MeasureBasis quantum.BasisLabel
	// StorageQubit is the memory qubit to move the pair to for K attempts
	// (CommQubitID to keep it in the communication qubit).
	StorageQubit nv.QubitID
}

// Result is what the node-side MHP passes back up to the link layer after a
// reply (or local failure), corresponding to the RESULT of Protocol 1.
type Result struct {
	Outcome   wire.MHPOutcome
	MHPSeq    uint16
	QueueID   wire.AbsoluteQueueID // this node's submitted queue ID
	PeerQueue wire.AbsoluteQueueID // the peer's submitted queue ID as echoed by H
	// Keep/MeasureBasis/StorageQubit/Alpha echo the attempt parameters so the
	// link layer can complete post-processing.
	Keep         bool
	MeasureBasis quantum.BasisLabel
	StorageQubit nv.QubitID
	Alpha        float64
	// Pair is this node's view of the freshly generated entangled pair when
	// Outcome.Success() is true (claimed from the shared pair registry).
	Pair *nv.EntangledPair
	// AttemptCycle is the MHP cycle in which the attempt was triggered.
	AttemptCycle uint64
}

// Generator is implemented by the link layer (EGP): it is polled once per
// MHP cycle while it has work and receives results asynchronously.
type Generator interface {
	// PollTrigger is called at the start of every MHP cycle the node polls.
	PollTrigger(cycle uint64) PollDecision
	// HandleResult delivers the outcome of a previously triggered attempt.
	HandleResult(r Result)
	// Idle reports that polling is a no-op and stays one until the generator
	// wakes its node (Node.Wake): nothing is queued and no attempt is
	// outstanding. The clock parks an idle node whose replies have all come.
	Idle() bool
}

// PairRegistry shares freshly generated entangled pairs between the midpoint
// (which creates them) and the two nodes' link layers (which claim their
// side upon receiving the REPLY). It stands in for "the qubit is already
// physically at the node" — only classical information travels in REPLY.
//
// The registry is the one object a link's two nodes and midpoint share, so it
// also holds the link's free lists of GEN and REPLY payloads. All three run on
// the link's own engine (serial or one shard), so neither needs a lock.
type PairRegistry struct {
	pairs map[uint16]*nv.EntangledPair
	// newest is the most recently assigned sequence number; Sweep measures
	// staleness against it in circular uint16 distance.
	newest    uint16
	hasNewest bool
	evicted   uint64

	gens    freeList[genPayload]
	replies freeList[replyPayload]
	// inFlight is each side's newest GEN still on its way to the midpoint
	// (see departed), nil once it has arrived, and delivery its pending
	// delivery event, which the other side's GEN may ride.
	inFlight [2]*genPayload
	delivery [2]classical.Delivery
}

// Registry eviction parameters: a sweep runs whenever the registry exceeds
// the high-water mark, and unconditionally from the node-side maintenance
// pass; entries lagging the newest sequence number by more than the lag are
// dropped. The lag comfortably exceeds the deepest reply pipeline (the EGP
// caps outstanding multiplexed attempts at 64).
const (
	registryHighWater = 2048
	registryMaxLag    = 1024
)

// NewPairRegistry creates an empty registry.
func NewPairRegistry() *PairRegistry {
	return &PairRegistry{pairs: make(map[uint16]*nv.EntangledPair)}
}

// Put stores the pair generated for the given midpoint sequence number. The
// registry keeps a bounded history: once it exceeds the high-water mark,
// entries far behind the newest sequence number are swept out, since both
// nodes have long since processed (or expired) them.
func (r *PairRegistry) Put(seq uint16, pair *nv.EntangledPair) {
	r.pairs[seq] = pair
	r.newest = seq
	r.hasNewest = true
	if len(r.pairs) > registryHighWater {
		r.Sweep(registryMaxLag)
	}
}

// Sweep evicts entries whose sequence number lags the newest assigned
// sequence by more than maxLag in circular uint16 distance, returning how
// many were dropped. Without it the registry would retain pairs forever when
// REPLY frames are lost (the nodes never claim them), so the node-side MHP
// calls Sweep from the same periodic maintenance pass that drops stale
// pending attempts.
func (r *PairRegistry) Sweep(maxLag uint16) int {
	if !r.hasNewest {
		return 0
	}
	evicted := 0
	for s := range r.pairs {
		if r.newest-s > maxLag { // circular distance behind newest
			delete(r.pairs, s)
			evicted++
		}
	}
	r.evicted += uint64(evicted)
	return evicted
}

// Evicted returns how many entries sweeps have dropped so far.
func (r *PairRegistry) Evicted() uint64 { return r.evicted }

// Get returns the pair for a midpoint sequence number, or nil.
func (r *PairRegistry) Get(seq uint16) *nv.EntangledPair { return r.pairs[seq] }

// Forget drops a pair from the registry once both sides have claimed it (or
// it expired).
func (r *PairRegistry) Forget(seq uint16) { delete(r.pairs, seq) }

// Len returns how many pairs are registered.
func (r *PairRegistry) Len() int { return len(r.pairs) }

// genPayload is the payload travelling from a node to the midpoint: the
// encoded GEN frame plus the physical "photon" (its emission parameters).
// The photon cannot be lost independently of the frame here because photon
// loss is already part of the optical model sampled at the midpoint; what
// matters for protocol robustness is losing the classical frame.
//
// Payloads travel as pointers drawn from the link's free list. The sender
// reclaims a payload the channel dropped; otherwise the midpoint returns it
// once nothing refers to it any more: when it is matched, or from its hold
// event if it has one.
type genPayload struct {
	frame [wire.GENFrameLen]byte
	// size is how many bytes of frame were sent: always the full frame from
	// a node, shorter only for a hand-built payload (NewGENPayload).
	size  uint8
	alpha float64
	side  nv.PairSide
	cycle uint64
	// at is when the GEN reaches the midpoint. peerAt, if peerDue, is when
	// the other side's GEN of the same cycle does; the two learn of each
	// other when the second is sent while the first is on its way.
	at, peerAt sim.Time
	peerDue    bool
	// timed is set once a hold event refers to the payload.
	timed bool
}

// replyPayload carries the encoded REPLY frame from the midpoint to a node,
// which returns it to the free list as soon as it has decoded it.
type replyPayload struct {
	frame [wire.REPLYFrameLen]byte
	size  uint8
}

// freeList recycles one kind of payload struct.
type freeList[T any] []*T

func (l *freeList[T]) get() *T {
	if n := len(*l); n > 0 {
		p := (*l)[n-1]
		*l = (*l)[:n-1]
		return p
	}
	return new(T)
}

func (l *freeList[T]) put(p *T) { *l = append(*l, p) }

// departed records a GEN its channel accepted, with its pending delivery d,
// as its side's newest GEN in flight. If the other side's newest GEN in
// flight is of the same cycle, the two are each other's partner, and each
// learns when the other arrives.
func (r *PairRegistry) departed(p *genPayload, d classical.Delivery) {
	if o := r.inFlight[1-p.side]; o != nil && o.cycle == p.cycle {
		p.peerAt, p.peerDue = o.at, true
		o.peerAt, o.peerDue = p.at, true
	}
	r.inFlight[p.side], r.delivery[p.side] = p, d
}

// Node is the node-side MHP instance.
type Node struct {
	Name string

	simul    sim.Engine
	gen      Generator
	device   *nv.Device
	registry *PairRegistry
	side     nv.PairSide

	toMidpoint *classical.Channel

	cycleTimeK   sim.Duration
	cycleTimeM   sim.Duration
	pending      []pendingAttempt // attempts awaiting a REPLY, oldest first
	attemptCount uint64
	localFails   uint64

	// clock polls the node; slot is its registration index there. A parked
	// node is skipped until Wake. polled is the cycle of the node's latest
	// PollTrigger call, and parkedAt the cycle from which a parked node's
	// skipped polls count (see PolledCycle).
	clock    *Clock
	slot     int
	parked   bool
	parkedAt uint64
	polled   uint64

	// Flight-recorder hooks; all nil-safe, nil when observability is off.
	trace   *obs.Ring
	traceID uint64
	metrics *obs.MHPMetrics

	// paused stops attempt generation (the link-admin Down state): the cycle
	// clock keeps ticking and maintenance sweeps keep running while the node
	// is active, but the generator is no longer polled. rateDivisor, when >1,
	// throttles a Degraded link to polling only every Nth cycle. Both cost
	// one branch per cycle when inactive, keeping fault plumbing zero-cost
	// when off.
	paused      bool
	rateDivisor uint64
}

// pendingAttempt is an attempt awaiting its REPLY. A node's cycles only
// grow, so appending keeps the pending slice in cycle order. The slice keeps
// the capacity it grows to: one attempt on a loss-free link; under classical
// loss, the attempts whose REPLY never came until the maintenance pass drops
// them 4,096 to 5,120 cycles later.
type pendingAttempt struct {
	cycle    uint64
	decision PollDecision
}

// NodeConfig collects the parameters needed to construct a node-side MHP.
type NodeConfig struct {
	Name       string
	Sim        sim.Engine
	Generator  Generator
	Device     *nv.Device
	Registry   *PairRegistry
	Side       nv.PairSide
	ToMidpoint *classical.Channel
	CycleTimeK sim.Duration
	CycleTimeM sim.Duration

	// Trace, when non-nil, records attempt/REPLY lifecycle events under
	// track TraceID (the link ID); Metrics publishes attempt counters. Both
	// are nil-safe and nil by default.
	Trace   *obs.Ring
	TraceID uint64
	Metrics *obs.MHPMetrics
}

// NewNode builds a node-side MHP instance.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Sim == nil || cfg.Generator == nil || cfg.Device == nil || cfg.Registry == nil || cfg.ToMidpoint == nil {
		panic("mhp: incomplete node configuration")
	}
	return &Node{
		Name:       cfg.Name,
		simul:      cfg.Sim,
		gen:        cfg.Generator,
		device:     cfg.Device,
		registry:   cfg.Registry,
		side:       cfg.Side,
		toMidpoint: cfg.ToMidpoint,
		cycleTimeK: cfg.CycleTimeK,
		cycleTimeM: cfg.CycleTimeM,
		parked:     cfg.Generator.Idle(),
		trace:      cfg.Trace,
		traceID:    cfg.TraceID,
		metrics:    cfg.Metrics,
	}
}

// Cycle returns the current MHP cycle number, read from the node's clock (0
// before the node joins one).
func (n *Node) Cycle() uint64 {
	if n.clock == nil {
		return 0
	}
	return n.clock.cycleOf(n)
}

// PolledCycle returns the cycle at which the node last polled its generator,
// counting the polls a parked node skips: every cycle since it parked that
// was neither paused nor throttled away is one.
func (n *Node) PolledCycle() uint64 {
	if !n.parked || n.paused {
		return n.polled
	}
	c := n.Cycle()
	if n.rateDivisor > 1 {
		c -= c % n.rateDivisor
	}
	if c > n.parkedAt {
		return c
	}
	return n.polled
}

// Wake returns a parked node to its clock's active set; the generator calls
// it when it gains work. A node woken during the clock's tick is polled in
// that cycle if the clock has not reached its slot yet, and from the next
// cycle otherwise, just as its own ticker would have polled it.
func (n *Node) Wake() {
	if !n.parked {
		return
	}
	n.polled = n.PolledCycle()
	n.parked = false
	if n.clock != nil {
		n.clock.activate(n)
	}
}

// settle folds the polls a parked node has skipped under its current pause
// and throttle settings into polled, before those settings change.
func (n *Node) settle() {
	if n.parked {
		n.polled, n.parkedAt = n.PolledCycle(), n.Cycle()
	}
}

// SetPaused pauses (or resumes) attempt generation. While paused the cycle
// clock keeps counting so a repaired link resumes on the same deterministic
// cycle grid.
func (n *Node) SetPaused(p bool) {
	n.settle()
	n.paused = p
}

// Paused reports whether attempt generation is paused.
func (n *Node) Paused() bool { return n.paused }

// SetRateDivisor throttles attempt generation to one poll every d cycles
// (the Degraded reduced-rate mode); d <= 1 restores the full rate.
func (n *Node) SetRateDivisor(d uint64) {
	n.settle()
	n.rateDivisor = d
}

// ClearPending discards every attempt still awaiting a REPLY — the dying
// link's in-flight attempts, whose replies (if any) will find no matching
// queue item anyway.
func (n *Node) ClearPending() { n.pending = n.pending[:0] }

// Attempts returns how many attempts this node has triggered.
func (n *Node) Attempts() uint64 { return n.attemptCount }

// period is the node's MHP cycle: the M-type cycle period (the finest
// granularity at which the EGP can be polled); the EGP's scheduler is
// responsible for not triggering K attempts faster than the hardware allows.
func (n *Node) period() sim.Duration {
	period := n.cycleTimeM
	if period <= 0 {
		period = n.cycleTimeK
	}
	if period <= 0 {
		panic("mhp: node has no positive cycle time")
	}
	return period
}

// Start begins the periodic MHP cycle on the node's clock, first building a
// clock of its own when the node has none.
func (n *Node) Start() (stop func()) {
	if n.clock == nil {
		NewClock(n.simul).Add(n)
	}
	return n.clock.Start()
}

// runCycle executes one MHP cycle: poll the EGP and trigger if requested.
func (n *Node) runCycle(cycle uint64) {
	// Periodically discard pending-attempt state whose REPLY was evidently
	// lost, so the slice stays bounded during long lossy runs; sweep the shared
	// pair registry in the same pass, since lost REPLYs also strand pairs
	// that neither node will ever claim. A parked node skips this pass: its
	// pending slice is empty, and a sweep only evicts pairs far older than any
	// a REPLY can still name (a REPLY carries the sequence number just
	// assigned), so when an idle link's registry is swept is not observable.
	if cycle%1024 == 0 {
		if len(n.pending) > 0 && cycle > 4096 {
			n.DropPending(cycle - 4096)
		}
		n.registry.Sweep(registryMaxLag)
	}
	if n.paused {
		return
	}
	if n.rateDivisor > 1 && cycle%n.rateDivisor != 0 {
		return
	}
	n.polled = cycle
	decision := n.gen.PollTrigger(cycle)
	if !decision.Attempt {
		return
	}
	// Local hardware failure path (GEN_FAIL): initialising the communication
	// qubit can fail; modelled as an immediate local error result. The
	// electron initialisation infidelity is already part of the optical
	// model, so here GEN_FAIL only fires when the communication qubit is
	// unavailable (should not happen if the EGP tracks state correctly).
	if decision.Keep && !n.device.CommFree() {
		n.localFails++
		n.gen.HandleResult(Result{
			Outcome:      wire.ErrGeneralFailure,
			QueueID:      decision.QueueID,
			Keep:         decision.Keep,
			Alpha:        decision.Alpha,
			AttemptCycle: cycle,
		})
		return
	}
	n.attemptCount++
	keep := int64(0)
	if decision.Keep {
		keep = 1
	}
	now := n.simul.Now()
	n.trace.Record(now, obs.KindMHPAttempt, n.traceID, int64(cycle), keep)
	if n.metrics != nil {
		n.metrics.Attempts.Inc()
	}
	// Triggering an attempt dephases carbon-stored pairs at this node
	// (Appendix D.4.1).
	n.device.ApplyAttemptDephasing(decision.Alpha)

	n.pending = append(n.pending, pendingAttempt{cycle, decision})
	p := n.registry.gens.get()
	*p = genPayload{
		size: wire.GENFrameLen, alpha: decision.Alpha, side: n.side, cycle: cycle,
		at: now.Add(n.toMidpoint.Delay()),
	}
	wire.GENFrame{QueueID: decision.QueueID, Timestamp: cycle}.Put(&p.frame)
	// When the other side's newest GEN is on its way and this one would
	// arrive right behind it, with no event in between, this one rides its
	// delivery event (classical.Channel.PostAfter): the two GENs of a cycle,
	// one event. That holds when the clock polled the other node just before
	// this one and nothing was scheduled since; nodes on tickers of their own
	// never fuse, since the first ticker rearms between the two sends. A
	// frame the channel drops returns to the free list at once, since no
	// receiver will.
	var host classical.Delivery
	if n.registry.inFlight[1-n.side] != nil {
		host = n.registry.delivery[1-n.side]
	}
	if d, ok := n.toMidpoint.PostAfter(host, p); ok {
		n.registry.departed(p, d)
	} else {
		n.registry.gens.put(p)
	}
}

// HandleReply processes a REPLY frame delivered from the midpoint.
func (n *Node) HandleReply(msg classical.Message) {
	payload, ok := msg.Payload.(*replyPayload)
	if !ok {
		return
	}
	reply, err := wire.DecodeREPLY(payload.frame[:payload.size])
	n.registry.replies.put(payload)
	if err != nil {
		return
	}
	if n.trace != nil { // the clock is read only for a record
		n.trace.Record(n.simul.Now(), obs.KindMHPReply, n.traceID, int64(reply.Outcome), int64(reply.MHPSeq))
	}
	// Match the reply to the oldest pending attempt with the echoed queue ID,
	// which recovers the attempt's cycle: a REPLY lost on the way leaves its
	// attempt behind, and the next REPLY for the same queue item answers the
	// older attempt first. A pending attempt holds no pointer, so the slot
	// the deletion vacates needs no clearing.
	var attempt pendingAttempt
	for i, p := range n.pending {
		if p.decision.QueueID == reply.QueueID {
			attempt = p
			n.pending = append(n.pending[:i], n.pending[i+1:]...)
			break
		}
	}
	cycle, decision := attempt.cycle, attempt.decision
	result := Result{
		Outcome:      reply.Outcome,
		MHPSeq:       reply.MHPSeq,
		QueueID:      reply.QueueID,
		PeerQueue:    reply.PeerQueue,
		Keep:         decision.Keep,
		MeasureBasis: decision.MeasureBasis,
		StorageQubit: decision.StorageQubit,
		Alpha:        decision.Alpha,
		AttemptCycle: cycle,
	}
	if reply.Outcome.Success() {
		result.Pair = n.registry.Get(reply.MHPSeq)
	}
	n.gen.HandleResult(result)
}

// PendingAttempts returns how many attempts are awaiting a REPLY.
func (n *Node) PendingAttempts() int { return len(n.pending) }

// DropPending discards the pending attempts of cycles before olderThan; the
// node's periodic maintenance pass calls it with a cutoff 4,096 cycles back,
// since a REPLY that late was evidently lost.
func (n *Node) DropPending(olderThan uint64) {
	k := 0
	for k < len(n.pending) && n.pending[k].cycle < olderThan {
		k++
	}
	n.pending = slices.Delete(n.pending, 0, k)
}

// Midpoint is the heralding-station service: it pairs up GEN frames arriving
// from A and B in the same detection time window, consults the optical model
// for the measurement outcome, and sends REPLY frames to both nodes.
type Midpoint struct {
	simul    sim.Engine
	sampler  *photonics.LinkSampler
	registry *PairRegistry

	// to holds the REPLY channels, indexed by node side.
	to [2]*classical.Channel

	// holdTime is how long an unmatched GEN is held waiting for the peer's
	// GEN of the same cycle before the attempt is reported back as
	// NO_MESSAGE_OTHER. It must exceed the propagation asymmetry of the two
	// arms plus scheduling jitter.
	holdTime sim.Duration
	// onHold is the hold-timer handler, built once so holding a GEN schedules
	// a pooled event carrying the payload instead of allocating a closure.
	onHold sim.ArgHandler

	// depolarize, when in (0,1), applies a single-qubit depolarising channel
	// of that fidelity to every freshly heralded pair — the Degraded link
	// state's lowered-fidelity mode. 0 (the default) is off at the cost of
	// one comparison per heralded success.
	depolarize float64

	seq uint16
	// waiting holds unmatched GEN frames per node side, at most one per
	// attempt cycle (the frame's timestamp): the station links messages to
	// detection windows by timestamp, not by arrival order, so emission
	// multiplexing over asymmetric fibre arms pairs the right attempts. A
	// side rarely has more than one GEN waiting, so a scan beats a lookup.
	waiting [2][]*genPayload

	// Statistics.
	matched       uint64
	successes     uint64
	timeMismatch  uint64
	queueMismatch uint64
	noOther       uint64

	// Flight-recorder hooks; all nil-safe, nil when observability is off.
	trace   *obs.Ring
	traceID uint64
	metrics *obs.MHPMetrics
}

// MidpointConfig collects the construction parameters of a Midpoint.
type MidpointConfig struct {
	Sim      sim.Engine
	Sampler  *photonics.LinkSampler
	Registry *PairRegistry
	ToA      *classical.Channel
	ToB      *classical.Channel
	// HoldTime bounds how long an unmatched GEN waits for its counterpart;
	// it defaults to 500 µs which covers the QL2020 arm asymmetry with ample
	// margin.
	HoldTime sim.Duration

	// Trace, when non-nil, records heralding decisions under track TraceID
	// (the link ID); Metrics publishes match/success counters.
	Trace   *obs.Ring
	TraceID uint64
	Metrics *obs.MHPMetrics
}

// NewMidpoint builds the heralding-station service.
func NewMidpoint(cfg MidpointConfig) *Midpoint {
	if cfg.Sim == nil || cfg.Sampler == nil || cfg.Registry == nil || cfg.ToA == nil || cfg.ToB == nil {
		panic("mhp: incomplete midpoint configuration")
	}
	hold := cfg.HoldTime
	if hold <= 0 {
		hold = 500 * sim.Microsecond
	}
	m := &Midpoint{
		simul:    cfg.Sim,
		sampler:  cfg.Sampler,
		registry: cfg.Registry,
		to:       [2]*classical.Channel{nv.SideA: cfg.ToA, nv.SideB: cfg.ToB},
		holdTime: hold,
		trace:    cfg.Trace,
		traceID:  cfg.TraceID,
		metrics:  cfg.Metrics,
	}
	m.onHold = m.holdExpired
	return m
}

// Stats reports the midpoint's counters: matched attempt pairs, heralded
// successes, and the three error classes.
func (m *Midpoint) Stats() (matched, successes, timeMismatch, queueMismatch, noOther uint64) {
	return m.matched, m.successes, m.timeMismatch, m.queueMismatch, m.noOther
}

// Sequence returns the next MHP sequence number to be assigned.
func (m *Midpoint) Sequence() uint16 { return m.seq }

// SetDepolarizing applies a single-qubit depolarising channel of the given
// fidelity to every future heralded pair (the Degraded lowered-fidelity
// mode); f <= 0 or f >= 1 turns the channel off.
func (m *Midpoint) SetDepolarizing(f float64) {
	if f <= 0 || f >= 1 {
		m.depolarize = 0
		return
	}
	m.depolarize = f
}

// HandleGEN processes a GEN frame (and accompanying photon) from either node.
func (m *Midpoint) HandleGEN(msg classical.Message) {
	payload, ok := msg.Payload.(*genPayload)
	if !ok {
		return
	}
	// Decode once on arrival; the decoded frame serves validation and the
	// matching path below, and the hold event re-reads the validated bytes.
	genSelf, err := wire.DecodeGEN(payload.frame[:payload.size])
	if err != nil || (payload.side != nv.SideA && payload.side != nv.SideB) {
		m.registry.gens.put(payload)
		return
	}
	if m.registry.inFlight[payload.side] == payload {
		m.registry.inFlight[payload.side] = nil
	}
	// Link the message to a detection window by its timestamp: look for a
	// waiting peer GEN of the same cycle.
	peers := m.waiting[1-payload.side]
	i := indexCycle(peers, payload.cycle)
	if i < 0 {
		// Hold this GEN waiting for the peer's; if it never arrives the
		// attempt is reported back as NO_MESSAGE_OTHER (or TIME_MISMATCH
		// when the peer was attempting different cycles) by the hold event.
		m.hold(payload)
		// A peer GEN that is on its way and arrives before the hold would
		// expire finds this one waiting and matches it, so the hold event
		// would find nothing to do: it is scheduled only otherwise. When the
		// peer has already arrived and gone, peerAt lies in the past.
		now := m.simul.Now()
		if !payload.peerDue || payload.peerAt < now || payload.peerAt >= now.Add(m.holdTime) {
			payload.timed = true
			sim.ScheduleArg(m.simul, m.holdTime, m.onHold, payload)
		}
		return
	}
	peer := peers[i]
	m.waiting[peer.side] = slices.Delete(peers, i, i+1)
	defer m.registry.gens.put(payload)
	if !peer.timed {
		defer m.registry.gens.put(peer)
	}

	// The peer frame was validated when it arrived, so its decode cannot fail.
	genPeer, _ := wire.DecodeGEN(peer.frame[:peer.size])

	// Queue-ID consistency check.
	if genSelf.QueueID != genPeer.QueueID {
		m.queueMismatch++
		m.trace.Record(m.simul.Now(), obs.KindHeraldDrop, m.traceID, 2, int64(payload.cycle))
		m.sendReplies(payload.side, wire.ErrQueueMismatch, 0, genSelf.QueueID, genPeer.QueueID)
		return
	}
	m.matched++
	if m.metrics != nil {
		m.metrics.Matched.Inc()
	}

	// Perform the optical Bell-state measurement. By convention A is the
	// first argument.
	var alpha [2]float64
	alpha[payload.side], alpha[peer.side] = payload.alpha, peer.alpha
	res := m.sampler.Sample(alpha[nv.SideA], alpha[nv.SideB], m.simul.RNG())

	outcome := wire.OutcomeFailure
	switch res.Outcome {
	case photonics.OutcomePsiPlus:
		outcome = wire.OutcomeStateOne
	case photonics.OutcomePsiMinus:
		outcome = wire.OutcomeStateTwo
	}
	var seq uint16
	if outcome.Success() {
		m.seq++
		seq = m.seq
		m.successes++
		heralded := quantum.PsiPlus
		if outcome == wire.OutcomeStateTwo {
			heralded = quantum.PsiMinus
		}
		pair := nv.NewEntangledPair(res.State, heralded, m.simul.Now())
		if m.depolarize > 0 {
			pair.State.ApplyDepolarizing(0, m.depolarize)
		}
		m.registry.Put(seq, pair)
		if m.metrics != nil {
			m.metrics.Successes.Inc()
		}
	}
	if m.trace != nil { // the clock is read only for a record
		m.trace.Record(m.simul.Now(), obs.KindHerald, m.traceID, int64(outcome), int64(seq))
	}

	// Send REPLY to both nodes, A first.
	var queue [2]wire.AbsoluteQueueID
	queue[payload.side], queue[peer.side] = genSelf.QueueID, genPeer.QueueID
	m.sendReplies(nv.SideA, outcome, seq, queue[nv.SideA], queue[nv.SideB])
}

// holdExpired is the hold event of one held GEN. If the GEN is still waiting,
// its peer never came: the attempt is reported back as an error. Either way
// nothing else refers to the payload any more (a matched or replaced GEN
// with a hold event is left to it), so it returns to the free list.
func (m *Midpoint) holdExpired(now sim.Time, arg any) {
	payload := arg.(*genPayload)
	if i := slices.Index(m.waiting[payload.side], payload); i >= 0 {
		m.waiting[payload.side] = slices.Delete(m.waiting[payload.side], i, i+1)
		gen, _ := wire.DecodeGEN(payload.frame[:payload.size])
		if len(m.waiting[1-payload.side]) > 0 {
			m.timeMismatch++
			m.trace.Record(now, obs.KindHeraldDrop, m.traceID, 0, int64(payload.cycle))
			m.sendReply(payload.side, wire.ErrTimeMismatch, 0, gen.QueueID, wire.AbsoluteQueueID{})
		} else {
			m.noOther++
			m.trace.Record(now, obs.KindHeraldDrop, m.traceID, 1, int64(payload.cycle))
			m.sendReply(payload.side, wire.ErrNoMessageOther, 0, gen.QueueID, wire.AbsoluteQueueID{})
		}
	}
	m.registry.gens.put(payload)
}

// hold makes a GEN its side's waiting GEN of its cycle, replacing an earlier
// one of the same cycle; the replaced GEN's hold event then finds it gone,
// and a replaced GEN without one returns to the free list at once.
func (m *Midpoint) hold(p *genPayload) {
	w := m.waiting[p.side]
	if i := indexCycle(w, p.cycle); i >= 0 {
		if !w[i].timed {
			m.registry.gens.put(w[i])
		}
		w[i] = p
		return
	}
	m.waiting[p.side] = append(w, p)
}

// indexCycle returns the index of the waiting GEN of the given cycle, or -1.
func indexCycle(w []*genPayload, cycle uint64) int {
	for i, p := range w {
		if p.cycle == cycle {
			return i
		}
	}
	return -1
}

// reply builds a pooled REPLY frame echoing its receiver's queue ID (own)
// and its peer's.
func (m *Midpoint) reply(outcome wire.MHPOutcome, seq uint16, own, peer wire.AbsoluteQueueID) *replyPayload {
	p := m.registry.replies.get()
	wire.REPLYFrame{Outcome: outcome, MHPSeq: seq, QueueID: own, PeerQueue: peer}.Put(&p.frame)
	p.size = wire.REPLYFrameLen
	return p
}

// sendReply transmits a REPLY frame to the node on the given side; a frame
// the channel drops returns to the free list at once.
func (m *Midpoint) sendReply(side nv.PairSide, outcome wire.MHPOutcome, seq uint16, own, peer wire.AbsoluteQueueID) {
	p := m.reply(outcome, seq, own, peer)
	if _, ok := m.to[side].Post(p); !ok {
		m.registry.replies.put(p)
	}
}

// sendReplies transmits the REPLY pair of a matched attempt: first to the
// node on side first, whose queue ID is q, then to its peer, whose queue ID
// is peerQ. Over arms of equal delay one event delivers both
// (classical.SendPair), in the order two sends would have.
func (m *Midpoint) sendReplies(first nv.PairSide, outcome wire.MHPOutcome, seq uint16, q, peerQ wire.AbsoluteQueueID) {
	p, peer := m.reply(outcome, seq, q, peerQ), m.reply(outcome, seq, peerQ, q)
	dropped, peerDropped := classical.SendPair(m.to[first], m.to[1-first], p, peer)
	if dropped {
		m.registry.replies.put(p)
	}
	if peerDropped {
		m.registry.replies.put(peer)
	}
}

// String summarises midpoint statistics for diagnostics.
func (m *Midpoint) String() string {
	return fmt.Sprintf("midpoint{matched=%d success=%d timeMismatch=%d queueMismatch=%d noOther=%d}",
		m.matched, m.successes, m.timeMismatch, m.queueMismatch, m.noOther)
}

// NewGENPayload builds the channel payload for a GEN frame as a node would
// send it (frames longer than a GEN are truncated); exported for tests.
func NewGENPayload(frame []byte, alpha float64, side nv.PairSide, cycle uint64) any {
	p := &genPayload{alpha: alpha, side: side, cycle: cycle}
	p.size = uint8(copy(p.frame[:], frame))
	return p
}

// NewREPLYPayload builds the channel payload for a REPLY frame (frames
// longer than a REPLY are truncated); exported for tests.
func NewREPLYPayload(frame []byte) any {
	p := &replyPayload{}
	p.size = uint8(copy(p.frame[:], frame))
	return p
}
