// Package mhp implements the physical-layer Midpoint Heralding Protocol of
// Section 5.1 for one link. Every MHP cycle each node polls its link layer
// and, if asked to, sends a GEN frame to the heralding station; the station
// matches the two GENs of a cycle, performs the optical Bell-state
// measurement and answers both nodes with a REPLY, which each node forwards
// upwards. One Link owns that whole exchange: both nodes' per-cycle
// decisions, the four fibres between them and the station, and the station
// itself.
//
// The cycle is kept by one Clock per engine, which polls the nodes that have
// work. A node polls only while its link layer has something queued or
// outstanding, or a reply is still due; an idle node parks until the link
// layer wakes it, since its poll would be a no-op (see Clock for why the run
// is unchanged).
//
// Because the Link sends both GENs of a cycle, it knows when each will
// arrive and schedules only the deliveries it needs. Over equal arms (every
// Lab link) one event delivers both GENs and one both REPLYs, so a failed
// attempt costs two events beside the clock's tick. Over unequal arms, such
// as QL2020's, each GEN and each REPLY has its own event.
//
// The package is deliberately stateless on the node side (beyond the pending
// attempt bookkeeping required to route replies), mirroring the paper's
// requirement that the physical layer holds no protocol state.
package mhp

import (
	"slices"

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
type PairRegistry struct {
	pairs map[uint16]*nv.EntangledPair
	// newest is the most recently assigned sequence number; Sweep measures
	// staleness against it in circular uint16 distance.
	newest    uint16
	hasNewest bool
	evicted   uint64
}

// Registry eviction parameters: a sweep runs whenever the registry exceeds
// the high-water mark, and unconditionally from the link's maintenance
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
// REPLY frames are lost (the nodes never claim them), so the link calls
// Sweep from the same periodic maintenance pass that drops stale pending
// attempts.
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

// Fibre names one of a link's four one-way fibres: the GEN fibres from each
// node to the heralding station and the REPLY fibres back, each pair in
// side order (FibreAH + Fibre(side) carries side's GENs).
type Fibre int

const (
	FibreAH Fibre = iota // A's GENs to the station
	FibreBH              // B's GENs to the station
	FibreHA              // the station's REPLYs to A
	FibreHB              // the station's REPLYs to B
)

// genPayload is a GEN on its way to the station: the encoded frame plus the
// physical "photon" (its emission parameters). The photon cannot be lost
// independently of the frame here because photon loss is already part of the
// optical model sampled at the station; what matters for protocol
// robustness is losing the classical frame.
//
// Payloads come from the link's free list. The station returns one once
// nothing refers to it any more: when it is matched, or from its hold event
// if it has one.
type genPayload struct {
	frame [wire.GENFrameLen]byte
	// size is how many bytes of frame were sent: always the full frame from
	// a node, shorter only for a malformed payload a test builds by hand.
	size  uint8
	alpha float64
	side  nv.PairSide
	cycle uint64
	// partnered is set when the other side's GEN of the same cycle arrives
	// after this one but before this one's hold would expire: it will find
	// this one waiting, so this one needs no hold event.
	partnered bool
	// rider is the other side's GEN of the same cycle when it arrives at the
	// same instant: this GEN's delivery event delivers it right after.
	rider *genPayload
	// timed is set once a hold event refers to the payload.
	timed bool
}

// replyPayload is a REPLY on its way to the node on side, which returns it
// to the free list as soon as it has decoded it.
type replyPayload struct {
	frame [wire.REPLYFrameLen]byte
	size  uint8
	side  nv.PairSide
	// rider is the other node's REPLY when it arrives at the same instant:
	// this REPLY's delivery event delivers it right after.
	rider *replyPayload
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

// Link is one link's MHP: the two nodes' attempt loop, the four fibres and
// the heralding station. Everything it does runs on the link's own engine.
type Link struct {
	eng      sim.Engine
	sampler  *photonics.LinkSampler
	registry *PairRegistry
	nodes    [2]Node

	// period is the MHP cycle (LinkConfig.CycleTime); the EGP's scheduler
	// is responsible for not triggering K attempts faster than the hardware
	// allows.
	period sim.Duration
	// arm is each node's one-way delay to the station, both ways; loss is
	// each fibre's per-frame loss probability.
	arm  [2]sim.Duration
	loss [4]float64
	// holdTime is how long an unmatched GEN is held waiting for the peer's
	// GEN of the same cycle before the attempt is reported back as
	// NO_MESSAGE_OTHER. It must exceed the propagation asymmetry of the two
	// arms plus scheduling jitter.
	holdTime sim.Duration
	// The delivery and hold handlers, built once so scheduling one carries
	// a pooled payload instead of allocating a closure.
	onGEN, onReply, onHold sim.ArgHandler

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
	// flight is each side's newest GEN still on its way to the station, nil
	// once it has arrived: the other side's GEN of the same cycle, sent
	// later in the same tick, settles the pair's arrivals with it.
	flight  [2]*genPayload
	gens    freeList[genPayload]
	replies freeList[replyPayload]
	// swept is the cycle of the latest registry sweep, so the maintenance
	// pass sweeps once per cycle however many of the link's nodes poll.
	swept uint64

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

// LinkConfig collects the construction parameters of a Link. The per-side
// arrays are indexed by nv.PairSide.
type LinkConfig struct {
	Sim        sim.Engine
	Sampler    *photonics.LinkSampler
	Registry   *PairRegistry
	Generators [2]Generator
	Devices    [2]*nv.Device
	// Arms are each node's one-way delay to the station, used both ways.
	Arms [2]sim.Duration
	// Loss is every fibre's initial per-frame loss probability.
	Loss float64
	// CycleTime is the MHP cycle: the M-type cycle period, the finest
	// granularity at which the EGP can be polled.
	CycleTime sim.Duration
	// HoldTime bounds how long an unmatched GEN waits for its counterpart.
	HoldTime sim.Duration

	// Trace, when non-nil, records attempt, REPLY and heralding events under
	// track TraceID (the link ID); Metrics publishes attempt, match and
	// success counters. Both are nil-safe and nil by default.
	Trace   *obs.Ring
	TraceID uint64
	Metrics *obs.MHPMetrics
}

// NewLink builds a link's MHP. Its nodes are named "A" and "B" and join no
// clock until one adds them.
func NewLink(cfg LinkConfig) *Link {
	if cfg.Sim == nil || cfg.Sampler == nil || cfg.Registry == nil || cfg.CycleTime <= 0 || cfg.HoldTime <= 0 {
		panic("mhp: incomplete link configuration")
	}
	l := &Link{
		eng:      cfg.Sim,
		sampler:  cfg.Sampler,
		registry: cfg.Registry,
		period:   cfg.CycleTime,
		arm:      cfg.Arms,
		holdTime: cfg.HoldTime,
		trace:    cfg.Trace,
		traceID:  cfg.TraceID,
		metrics:  cfg.Metrics,
	}
	for f := range l.loss {
		l.SetLoss(Fibre(f), cfg.Loss)
	}
	for side := range l.nodes {
		if cfg.Generators[side] == nil || cfg.Devices[side] == nil {
			panic("mhp: incomplete link configuration")
		}
		l.nodes[side] = Node{
			Name:   "AB"[side : side+1],
			link:   l,
			side:   nv.PairSide(side),
			gen:    cfg.Generators[side],
			device: cfg.Devices[side],
			parked: cfg.Generators[side].Idle(),
		}
	}
	l.onGEN, l.onReply, l.onHold = l.deliverGEN, l.deliverReply, l.holdExpired
	return l
}

// Node returns the node on the given side.
func (l *Link) Node(side nv.PairSide) *Node { return &l.nodes[side] }

// SetLoss changes one fibre's per-frame loss probability (the Degraded link
// state inflates every fibre's).
func (l *Link) SetLoss(f Fibre, p float64) {
	if p < 0 || p > 1 {
		panic("mhp: loss probability out of [0,1]")
	}
	l.loss[f] = p
}

// Stats reports the station's counters: matched attempt pairs, heralded
// successes, and the three error classes.
func (l *Link) Stats() (matched, successes, timeMismatch, queueMismatch, noOther uint64) {
	return l.matched, l.successes, l.timeMismatch, l.queueMismatch, l.noOther
}

// SetDepolarizing applies a single-qubit depolarising channel of the given
// fidelity to every future heralded pair (the Degraded lowered-fidelity
// mode); f <= 0 or f >= 1 turns the channel off.
func (l *Link) SetDepolarizing(f float64) {
	if f <= 0 || f >= 1 {
		f = 0
	}
	l.depolarize = f
}

// lost draws whether a frame sent on fibre f is lost.
func (l *Link) lost(f Fibre) bool { return l.eng.RNG().Bernoulli(l.loss[f]) }

// sendGEN sends side's GEN of the given cycle to the station, unless its
// fibre drops it. When the other side's GEN of the same cycle is already on
// its way, the link knows both arrivals and settles them here: a GEN
// arriving with its partner rides the partner's delivery event, and of two
// GENs arriving apart the first needs no hold event when the second is due
// before that hold would expire.
func (l *Link) sendGEN(side nv.PairSide, cycle uint64, d PollDecision) {
	if l.lost(FibreAH + Fibre(side)) {
		return
	}
	p := l.gens.get()
	*p = genPayload{size: wire.GENFrameLen, alpha: d.Alpha, side: side, cycle: cycle}
	wire.GENFrame{QueueID: d.QueueID, Timestamp: cycle}.Put(&p.frame)
	l.flight[side] = p
	if o := l.flight[1-side]; o != nil && o.cycle == cycle {
		first, gap := o, l.arm[side]-l.arm[1-side]
		if gap < 0 {
			first, gap = p, -gap
		}
		first.partnered = gap < l.holdTime
		if gap == 0 {
			o.rider = p
			return
		}
	}
	sim.ScheduleArg(l.eng, l.arm[side], l.onGEN, p)
}

// deliverGEN is a GEN's delivery event: the GEN arrives at the station,
// then the GEN riding it.
func (l *Link) deliverGEN(_ sim.Time, arg any) {
	p := arg.(*genPayload)
	rider := p.rider
	l.receiveGEN(p)
	if rider != nil {
		l.receiveGEN(rider)
	}
}

// receiveGEN processes a GEN frame (and accompanying photon) arriving at the
// station from either node.
func (l *Link) receiveGEN(payload *genPayload) {
	// Decode once on arrival; the decoded frame serves validation and the
	// matching path below, and the hold event re-reads the validated bytes.
	genSelf, err := wire.DecodeGEN(payload.frame[:payload.size])
	if err != nil || (payload.side != nv.SideA && payload.side != nv.SideB) {
		l.gens.put(payload)
		return
	}
	if l.flight[payload.side] == payload {
		l.flight[payload.side] = nil
	}
	// Link the message to a detection window by its timestamp: look for a
	// waiting peer GEN of the same cycle.
	peers := l.waiting[1-payload.side]
	i := indexCycle(peers, payload.cycle)
	if i < 0 {
		// Hold this GEN waiting for the peer's; if it never arrives the
		// attempt is reported back as NO_MESSAGE_OTHER (or TIME_MISMATCH
		// when the peer was attempting different cycles) by the hold event,
		// which a GEN whose partner is due in time does without.
		l.hold(payload)
		if !payload.partnered {
			payload.timed = true
			sim.ScheduleArg(l.eng, l.holdTime, l.onHold, payload)
		}
		return
	}
	peer := peers[i]
	l.waiting[peer.side] = slices.Delete(peers, i, i+1)
	defer l.gens.put(payload)
	if !peer.timed {
		defer l.gens.put(peer)
	}

	// The peer frame was validated when it arrived, so its decode cannot fail.
	genPeer, _ := wire.DecodeGEN(peer.frame[:peer.size])

	// Queue-ID consistency check.
	if genSelf.QueueID != genPeer.QueueID {
		l.queueMismatch++
		l.trace.Record(l.eng.Now(), obs.KindHeraldDrop, l.traceID, 2, int64(payload.cycle))
		l.sendReplies(payload.side, wire.ErrQueueMismatch, 0, genSelf.QueueID, genPeer.QueueID)
		return
	}
	l.matched++
	if l.metrics != nil {
		l.metrics.Matched.Inc()
	}

	// Perform the optical Bell-state measurement. By convention A is the
	// first argument.
	var alpha [2]float64
	alpha[payload.side], alpha[peer.side] = payload.alpha, peer.alpha
	res := l.sampler.Sample(alpha[nv.SideA], alpha[nv.SideB], l.eng.RNG())

	outcome := wire.OutcomeFailure
	switch res.Outcome {
	case photonics.OutcomePsiPlus:
		outcome = wire.OutcomeStateOne
	case photonics.OutcomePsiMinus:
		outcome = wire.OutcomeStateTwo
	}
	var seq uint16
	if outcome.Success() {
		l.seq++
		seq = l.seq
		l.successes++
		heralded := quantum.PsiPlus
		if outcome == wire.OutcomeStateTwo {
			heralded = quantum.PsiMinus
		}
		pair := nv.NewEntangledPair(res.State, heralded, l.eng.Now())
		if l.depolarize > 0 {
			pair.State.ApplyDepolarizing(0, l.depolarize)
		}
		l.registry.Put(seq, pair)
		if l.metrics != nil {
			l.metrics.Successes.Inc()
		}
	}
	if l.trace != nil { // the clock is read only for a record
		l.trace.Record(l.eng.Now(), obs.KindHerald, l.traceID, int64(outcome), int64(seq))
	}

	// Send REPLY to both nodes, A first.
	var queue [2]wire.AbsoluteQueueID
	queue[payload.side], queue[peer.side] = genSelf.QueueID, genPeer.QueueID
	l.sendReplies(nv.SideA, outcome, seq, queue[nv.SideA], queue[nv.SideB])
}

// holdExpired is the hold event of one held GEN. If the GEN is still waiting,
// its peer never came: the attempt is reported back as an error. Either way
// nothing else refers to the payload any more (a matched or replaced GEN
// with a hold event is left to it), so it returns to the free list.
func (l *Link) holdExpired(now sim.Time, arg any) {
	payload := arg.(*genPayload)
	if i := slices.Index(l.waiting[payload.side], payload); i >= 0 {
		l.waiting[payload.side] = slices.Delete(l.waiting[payload.side], i, i+1)
		gen, _ := wire.DecodeGEN(payload.frame[:payload.size])
		outcome, drop := wire.ErrNoMessageOther, int64(1)
		if len(l.waiting[1-payload.side]) > 0 {
			outcome, drop = wire.ErrTimeMismatch, 0
			l.timeMismatch++
		} else {
			l.noOther++
		}
		l.trace.Record(now, obs.KindHeraldDrop, l.traceID, drop, int64(payload.cycle))
		l.post(l.reply(payload.side, outcome, 0, gen.QueueID, wire.AbsoluteQueueID{}))
	}
	l.gens.put(payload)
}

// hold makes a GEN its side's waiting GEN of its cycle, replacing an earlier
// one of the same cycle; the replaced GEN's hold event then finds it gone,
// and a replaced GEN without one returns to the free list at once.
func (l *Link) hold(p *genPayload) {
	w := l.waiting[p.side]
	if i := indexCycle(w, p.cycle); i >= 0 {
		if !w[i].timed {
			l.gens.put(w[i])
		}
		w[i] = p
		return
	}
	l.waiting[p.side] = append(w, p)
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

// reply draws the loss of a REPLY to the node on side and, if its fibre
// carries it, builds the pooled frame echoing the receiver's queue ID (own)
// and its peer's; nil when the fibre drops it.
func (l *Link) reply(side nv.PairSide, outcome wire.MHPOutcome, seq uint16, own, peer wire.AbsoluteQueueID) *replyPayload {
	if l.lost(FibreHA + Fibre(side)) {
		return nil
	}
	p := l.replies.get()
	*p = replyPayload{size: wire.REPLYFrameLen, side: side}
	wire.REPLYFrame{Outcome: outcome, MHPSeq: seq, QueueID: own, PeerQueue: peer}.Put(&p.frame)
	return p
}

// sendReplies sends the REPLY pair of a matched attempt: first to the node on
// side first, whose queue ID is q, then to its peer, whose queue ID is peerQ.
// Over arms of equal delay the second rides the first's delivery event.
func (l *Link) sendReplies(first nv.PairSide, outcome wire.MHPOutcome, seq uint16, q, peerQ wire.AbsoluteQueueID) {
	p, peer := l.reply(first, outcome, seq, q, peerQ), l.reply(1-first, outcome, seq, peerQ, q)
	if p != nil && peer != nil && l.arm[nv.SideA] == l.arm[nv.SideB] {
		p.rider, peer = peer, nil
	}
	l.post(p)
	l.post(peer)
}

// post schedules a REPLY's delivery one arm's delay from now; nil is none.
func (l *Link) post(p *replyPayload) {
	if p != nil {
		sim.ScheduleArg(l.eng, l.arm[p.side], l.onReply, p)
	}
}

// deliverReply is a REPLY's delivery event: the REPLY arrives at its node,
// then the REPLY riding it at the other.
func (l *Link) deliverReply(_ sim.Time, arg any) {
	p := arg.(*replyPayload)
	rider := p.rider
	l.nodes[p.side].receiveReply(p)
	if rider != nil {
		l.nodes[rider.side].receiveReply(rider)
	}
}

// Node is one side of a link's MHP: it polls its link layer every cycle its
// clock polls it, triggers the link's GENs and routes REPLYs back up.
type Node struct {
	Name string

	link   *Link
	side   nv.PairSide
	gen    Generator
	device *nv.Device

	pending      []pendingAttempt // attempts awaiting a REPLY, oldest first
	attemptCount uint64

	// clock polls the node; slot is its registration index there. A parked
	// node is skipped until Wake. polled is the cycle of the node's latest
	// PollTrigger call, and parkedAt the cycle from which a parked node's
	// skipped polls count (see PolledCycle).
	clock    *Clock
	slot     int
	parked   bool
	parkedAt uint64
	polled   uint64

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

// runCycle executes one MHP cycle: poll the EGP and trigger if requested.
func (n *Node) runCycle(cycle uint64) {
	// Periodically discard pending-attempt state whose REPLY was evidently
	// lost, so the slice stays bounded during long lossy runs; sweep the
	// link's pair registry in the same pass, once per cycle, since lost
	// REPLYs also strand pairs that neither node will ever claim. A parked
	// node skips this pass: its pending slice is empty, and a sweep only
	// evicts pairs far older than any a REPLY can still name (a REPLY
	// carries the sequence number just assigned), so when an idle link's
	// registry is swept is not observable.
	if cycle%1024 == 0 {
		if len(n.pending) > 0 && cycle > 4096 {
			n.DropPending(cycle - 4096)
		}
		if l := n.link; l.swept != cycle {
			l.swept = cycle
			l.registry.Sweep(registryMaxLag)
		}
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
	l := n.link
	l.trace.Record(l.eng.Now(), obs.KindMHPAttempt, l.traceID, int64(cycle), keep)
	if l.metrics != nil {
		l.metrics.Attempts.Inc()
	}
	// Triggering an attempt dephases carbon-stored pairs at this node
	// (Appendix D.4.1).
	n.device.ApplyAttemptDephasing(decision.Alpha)

	n.pending = append(n.pending, pendingAttempt{cycle, decision})
	l.sendGEN(n.side, cycle, decision)
}

// receiveReply processes a REPLY frame arriving from the station.
func (n *Node) receiveReply(payload *replyPayload) {
	l := n.link
	reply, err := wire.DecodeREPLY(payload.frame[:payload.size])
	l.replies.put(payload)
	if err != nil {
		return
	}
	if l.trace != nil { // the clock is read only for a record
		l.trace.Record(l.eng.Now(), obs.KindMHPReply, l.traceID, int64(reply.Outcome), int64(reply.MHPSeq))
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
		result.Pair = l.registry.Get(reply.MHPSeq)
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
