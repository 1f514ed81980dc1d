// Package mhp implements the physical-layer Midpoint Heralding Protocol of
// Section 5.1 for one link. Every MHP cycle each node polls its link layer
// and, if asked to, sends a GEN frame to the heralding station; the station
// matches the two GENs of a cycle, performs the optical Bell-state
// measurement and answers both nodes with a REPLY, which each node forwards
// upwards. One Link owns that whole exchange: both nodes' per-cycle
// decisions, the four fibres between them and the station, and the station
// itself. The REPLY of a heralded success carries the pair beside its frame
// bytes, standing in for the qubits already at the nodes, as a GEN carries
// its photon's emission parameters.
//
// The cycle is kept by one Clock per engine, which polls the nodes that have
// work. A node polls only while its link layer has something queued or
// outstanding, or a reply is still due; an idle node parks until the link
// layer wakes it, since its poll would be a no-op (see Clock for why the run
// is unchanged).
//
// Because the Link sends both GENs of a cycle, it knows when each will
// arrive and schedules only the deliveries it needs. Over equal arms (every
// Lab link) one event delivers both GENs and one both REPLYs, so an attempt
// run attempt by attempt costs two events beside the clock's tick. Over
// unequal arms, such as QL2020's, each GEN and each REPLY has its own event.
//
// A Lab link does not run its failed attempts one by one: the clock's tick
// folds the coming run of them into itself, with the same random draws and
// the same records, up to the link's own horizon, and the link rests until
// the first cycle that succeeds or loses a frame. Failed attempts on
// different links commute, since each link owns its devices, sampler,
// station and random stream, so other links' events do not stop the run. A
// success does not commute where a network layer acts on several links from
// one link's event; there the clock folds every active link in lockstep, up
// to the simulator's horizon and before the first cycle in which any link
// succeeds or loses a frame (Clock.Lockstep). A lossy link folds too, stale
// pending attempts and all: each folded REPLY retires the oldest pending
// attempt of its queue item, as a delivered one does. QL2020 links, whose
// arms are long and unequal, and throttled links run attempt by attempt.
// Whenever no node of a clock is active, because they are parked or their
// links rest, the clock skips the ticks that would poll no one, up to the
// first resume cycle or the next event that could wake a node.
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
	// Pair is the freshly generated entangled pair when Outcome.Success() is
	// true, carried by the REPLY (both nodes' results hold the same pair).
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
	// Steady serves the clock's fold of the link's failed attempts: it
	// reports the attempt every poll from cycle on returns, one cycle apart,
	// as long as the only thing that happens is that each poll's attempt is
	// followed, before the next poll, by one failure result for an attempt of
	// the same kind (its own, or an earlier one whose REPLY was lost), and
	// for how many cycles that holds (0 when it does not hold at cycle). The
	// decision's MeasureBasis may vary per cycle (SteadyDecision). It changes
	// nothing.
	Steady(cycle uint64) (d PollDecision, steady uint64)
	// SteadyDecision returns the decision of the poll at cycle inside a
	// steady run whose decision Steady reported as d: d with that cycle's
	// MeasureBasis. It changes nothing.
	SteadyDecision(cycle uint64, d PollDecision) PollDecision
	// Absorb applies, in one step, the failed poll/result pairs of cycles
	// cycle to cycle+failed−1 at the steady decision d, the first polled at
	// the current time, leaving the generator as those polls and failure
	// results would.
	Absorb(cycle, failed uint64, d PollDecision)
}

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
// to the free list as soon as it has decoded it. pair is the heralded pair of
// a success, nil otherwise; the node takes it out before returning the
// payload, so an idle payload keeps no pair alive.
type replyPayload struct {
	frame [wire.REPLYFrameLen]byte
	size  uint8
	side  nv.PairSide
	pair  *nv.EntangledPair
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
	eng     sim.Engine
	sampler *photonics.LinkSampler
	nodes   [2]Node

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

	// Statistics.
	matched       uint64
	successes     uint64
	timeMismatch  uint64
	queueMismatch uint64
	noOther       uint64

	// Flight-recorder hooks; all nil-safe, nil when observability is off.
	trace   *obs.Ring
	traceID uint64

	// perAttempt turns the fold off (SetFolding).
	perAttempt bool
	// due counts the GEN and REPLY delivery events not yet fired; the fold
	// runs only while there are none, so the link's horizon need not count
	// them.
	due int
	// drawn holds the loss draws of the cycle a fold stopped before, in draw
	// order, for lost to take in place of drawing: drawn[took:nDrawn].
	drawn        [4]lossDraw
	nDrawn, took int
}

// lossDraw is one frame's loss draw on fibre f: the frame is lost when u is
// below the fibre's loss probability.
type lossDraw struct {
	f Fibre
	u float64
}

// LinkConfig collects the construction parameters of a Link. The per-side
// arrays are indexed by nv.PairSide.
type LinkConfig struct {
	Sim        sim.Engine
	Sampler    *photonics.LinkSampler
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
	// track TraceID (the link ID). It is nil-safe and nil by default.
	Trace   *obs.Ring
	TraceID uint64
}

// NewLink builds a link's MHP. Its nodes are named "A" and "B" and join no
// clock until one adds them.
func NewLink(cfg LinkConfig) *Link {
	if cfg.Sim == nil || cfg.Sampler == nil || cfg.CycleTime <= 0 || cfg.HoldTime <= 0 {
		panic("mhp: incomplete link configuration")
	}
	l := &Link{
		eng:      cfg.Sim,
		sampler:  cfg.Sampler,
		period:   cfg.CycleTime,
		arm:      cfg.Arms,
		holdTime: cfg.HoldTime,
		trace:    cfg.Trace,
		traceID:  cfg.TraceID,
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

// SetFolding turns the fold of failed attempts (Clock) on, the default, or
// off. Off, the link runs every attempt through its events: the path the
// fold must reproduce, which tests compare it with. On a clock that folds in
// lockstep (Clock.Lockstep), a link with the fold off keeps every link of
// the clock on that path while it is active.
func (l *Link) SetFolding(on bool) { l.perAttempt = !on }

// canFold reports whether the link's state lets it fold its coming failed
// attempts (see Clock): the fold is on; the arms are equal and shorter than
// half a cycle, so the GEN pair and the REPLY pair are one event each and
// each REPLY arrives before the next tick; no fibre drops every frame;
// neither node is paused or throttled; no GEN or REPLY is on its way and no
// GEN waits at the station, so no REPLY will come for an attempt still
// pending (its GEN or REPLY was lost) and each folded REPLY retires the
// oldest pending attempt of its queue item; and neither the sampler nor the
// link holds a drawn attempt or loss waiting for its event.
func (l *Link) canFold() bool {
	a, b := &l.nodes[nv.SideA], &l.nodes[nv.SideB]
	arm := l.arm[nv.SideA]
	return !l.perAttempt && arm == l.arm[nv.SideB] && 2*arm < l.period &&
		max(l.loss[FibreAH], l.loss[FibreBH], l.loss[FibreHA], l.loss[FibreHB]) < 1 &&
		!a.paused && !b.paused && a.rateDivisor <= 1 && b.rateDivisor <= 1 && l.due == 0 &&
		len(l.waiting[nv.SideA]) == 0 && len(l.waiting[nv.SideB]) == 0 && !l.sampler.Held() && l.nDrawn == 0
}

// lossy reports whether any fibre draws a loss per frame.
func (l *Link) lossy() bool { return l.loss != [4]float64{} }

// window returns how many cycles from the one polled at now the link can
// fold before h: cycle j polls at now + j·P (P the cycle), heralds an arm a
// after and answers 2a after, and is taken only if its answer falls
// strictly before h.
func (l *Link) window(now, h sim.Time) uint64 {
	reply := now.Add(2 * l.arm[nv.SideA])
	if reply >= h {
		return 0
	}
	return uint64((h-1-reply)/sim.Time(l.period)) + 1
}

// steady returns both generators' steady decisions from cycle on and for how
// many cycles both hold (Generator.Steady) before a maintenance pass; 0 when
// either does not hold, the two disagree on the queue item or the attempt
// type, or a node's folded REPLYs would retire a pending attempt of the
// other type.
func (l *Link) steady(cycle uint64) (dA, dB PollDecision, steady uint64) {
	a, b := &l.nodes[nv.SideA], &l.nodes[nv.SideB]
	dA, steadyA := a.gen.Steady(cycle)
	if steadyA == 0 {
		return dA, dB, 0
	}
	dB, steadyB := b.gen.Steady(cycle)
	if steadyB == 0 || dA.QueueID != dB.QueueID || dA.Keep != dB.Keep ||
		!a.pending.sameKind(dA) || !b.pending.sameKind(dB) {
		return dA, dB, 0
	}
	steady = min(steadyA, steadyB)
	if a.pending.len() > 0 || b.pending.len() > 0 {
		// A maintenance pass may drop pending attempts: the fold stops
		// before it, and the tick runs it.
		next := max((cycle+1023)/1024*1024, 5*1024)
		steady = min(steady, next-cycle)
	}
	return dA, dB, steady
}

// absorb applies in bulk what the events of n failed attempts from cycle on,
// the first polled at now, would have done, carbon dephasing aside (the
// clock applies it across links): the generators' polls and results, the
// nodes' polled cycles, counters and pending attempts, the station's and
// with tracing on the attempt, herald and REPLY records at their times.
func (l *Link) absorb(now sim.Time, cycle, n uint64, dA, dB PollDecision) {
	last := cycle + n - 1
	for side, d := range [2]PollDecision{dA, dB} {
		nd := &l.nodes[side]
		nd.gen.Absorb(cycle, n, d)
		nd.attemptCount += n
		nd.polled = last
		// Each cycle's attempt joins the pending list and its REPLY retires
		// the oldest pending attempt of the queue item: with s stale ones
		// pending, the first min(n, s) go and the newest min(n, s) folded
		// attempts stay.
		kept := nd.pending.retire(d.QueueID, n)
		for c := last + 1 - kept; c <= last; c++ {
			nd.pending.push(pendingAttempt{c, nd.gen.SteadyDecision(c, d)})
		}
	}
	l.matched += n
	if l.trace != nil {
		arm := l.arm[nv.SideA]
		keep, fail := int64(0), int64(wire.OutcomeFailure)
		if dA.Keep {
			keep = 1
		}
		for j := range n {
			at := now.Add(sim.Duration(j) * l.period)
			l.trace.Record(at, obs.KindMHPAttempt, l.traceID, int64(cycle+j), keep)
			l.trace.Record(at, obs.KindMHPAttempt, l.traceID, int64(cycle+j), keep)
			l.trace.Record(at.Add(arm), obs.KindHerald, l.traceID, fail, 0)
			l.trace.Record(at.Add(2*arm), obs.KindMHPReply, l.traceID, fail, 0)
			l.trace.Record(at.Add(2*arm), obs.KindMHPReply, l.traceID, fail, 0)
		}
	}
}

// lost draws whether a frame sent on fibre f is lost, as RNG.Bernoulli
// would: a fibre that drops no frame or every frame draws nothing. The next
// loss a fold drew ahead (drawCycle) is taken in place of a draw; it must be
// this fibre's.
func (l *Link) lost(f Fibre) bool {
	p := l.loss[f]
	if p <= 0 || p >= 1 {
		return p >= 1
	}
	if l.took == l.nDrawn {
		return l.eng.RNG().Float64() < p
	}
	d := l.drawn[l.took]
	if d.f != f {
		panic("mhp: a held loss draw taken by another fibre")
	}
	if l.took++; l.took == l.nDrawn {
		l.took, l.nDrawn = 0, 0
	}
	return d.u < p
}

// drawLoss draws, for a fold, whether a frame sent on fibre f is lost, as
// lost would, and holds the draw.
func (l *Link) drawLoss(f Fibre, rng *sim.RNG) bool {
	p := l.loss[f]
	if p <= 0 {
		return false
	}
	u := rng.Float64()
	l.drawn[l.nDrawn] = lossDraw{f, u}
	l.nDrawn++
	return u < p
}

// drawCycle draws, for a fold, the next cycle's attempt at the bright-state
// populations αA and αB from the link's stream rng, in the order its events
// would: the losses of A's and B's GENs at the polls, the optical test at
// the herald when both arrive, and the losses of the REPLYs to A and B. It
// reports whether the attempt fails with every frame delivered, in which
// case failCycle gives the draws up; otherwise the sampler and the link hold
// them for the cycle's events.
func (l *Link) drawCycle(alphaA, alphaB float64, rng *sim.RNG) bool {
	if a, b := l.drawLoss(FibreAH, rng), l.drawLoss(FibreBH, rng); a || b {
		return false
	}
	if l.sampler.Draw(alphaA, alphaB, rng) {
		return false
	}
	a, b := l.drawLoss(FibreHA, rng), l.drawLoss(FibreHB, rng)
	return !a && !b
}

// failCycle gives up the draws of a cycle drawCycle found failed: the
// sampler counts the attempt, and the loss draws are spent.
func (l *Link) failCycle() {
	l.sampler.Fail()
	l.nDrawn = 0
}

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
	l.due++
	sim.ScheduleArg(l.eng, l.arm[side], l.onGEN, p)
}

// deliverGEN is a GEN's delivery event: the GEN arrives at the station,
// then the GEN riding it.
func (l *Link) deliverGEN(_ sim.Time, arg any) {
	p := arg.(*genPayload)
	rider := p.rider
	l.due--
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
		if l.trace != nil { // the clock is read only for a record
			l.trace.Record(l.eng.Now(), obs.KindHeraldDrop, l.traceID, 2, int64(payload.cycle))
		}
		l.sendReplies(payload.side, wire.ErrQueueMismatch, 0, genSelf.QueueID, genPeer.QueueID, nil)
		return
	}
	l.matched++

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
	var pair *nv.EntangledPair
	if outcome.Success() {
		l.seq++
		seq = l.seq
		l.successes++
		heralded := quantum.PsiPlus
		if outcome == wire.OutcomeStateTwo {
			heralded = quantum.PsiMinus
		}
		pair = nv.NewEntangledPair(res.State, heralded, l.eng.Now())
		if l.depolarize > 0 {
			pair.State.ApplyDepolarizing(0, l.depolarize)
		}
	}
	if l.trace != nil { // the clock is read only for a record
		l.trace.Record(l.eng.Now(), obs.KindHerald, l.traceID, int64(outcome), int64(seq))
	}

	// Send REPLY to both nodes, A first.
	var queue [2]wire.AbsoluteQueueID
	queue[payload.side], queue[peer.side] = genSelf.QueueID, genPeer.QueueID
	l.sendReplies(nv.SideA, outcome, seq, queue[nv.SideA], queue[nv.SideB], pair)
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
		l.post(l.reply(payload.side, outcome, 0, gen.QueueID, wire.AbsoluteQueueID{}, nil))
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
// and its peer's, carrying pair (nil but for a success); nil when the fibre
// drops it.
func (l *Link) reply(side nv.PairSide, outcome wire.MHPOutcome, seq uint16, own, peer wire.AbsoluteQueueID, pair *nv.EntangledPair) *replyPayload {
	if l.lost(FibreHA + Fibre(side)) {
		return nil
	}
	p := l.replies.get()
	*p = replyPayload{size: wire.REPLYFrameLen, side: side, pair: pair}
	wire.REPLYFrame{Outcome: outcome, MHPSeq: seq, QueueID: own, PeerQueue: peer}.Put(&p.frame)
	return p
}

// sendReplies sends the REPLY pair of a matched attempt, both carrying pair:
// first to the node on side first, whose queue ID is q, then to its peer,
// whose queue ID is peerQ. Over arms of equal delay the second rides the
// first's delivery event.
func (l *Link) sendReplies(first nv.PairSide, outcome wire.MHPOutcome, seq uint16, q, peerQ wire.AbsoluteQueueID, pair *nv.EntangledPair) {
	p, peer := l.reply(first, outcome, seq, q, peerQ, pair), l.reply(1-first, outcome, seq, peerQ, q, pair)
	if p != nil && peer != nil && l.arm[nv.SideA] == l.arm[nv.SideB] {
		p.rider, peer = peer, nil
	}
	l.post(p)
	l.post(peer)
}

// post schedules a REPLY's delivery one arm's delay from now; nil is none.
func (l *Link) post(p *replyPayload) {
	if p != nil {
		l.due++
		sim.ScheduleArg(l.eng, l.arm[p.side], l.onReply, p)
	}
}

// deliverReply is a REPLY's delivery event: the REPLY arrives at its node,
// then the REPLY riding it at the other.
func (l *Link) deliverReply(_ sim.Time, arg any) {
	p := arg.(*replyPayload)
	rider := p.rider
	l.due--
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

	pending      pendingList // attempts awaiting a REPLY, oldest first
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
	// clock keeps ticking and the maintenance pass keeps running while the
	// node is active, but the generator is no longer polled. rateDivisor, when >1,
	// throttles a Degraded link to polling only every Nth cycle. Both cost
	// one branch per cycle when inactive, keeping fault plumbing zero-cost
	// when off.
	paused      bool
	rateDivisor uint64
}

// pendingAttempt is an attempt awaiting its REPLY. It holds no pointer, so
// a slot a removal vacates needs no clearing.
type pendingAttempt struct {
	cycle    uint64
	decision PollDecision
}

// pendingList is a node's attempts awaiting a REPLY, oldest first: a node's
// cycles only grow, so appending keeps it in cycle order. The live attempts
// are buf[head:], so removing the oldest only advances head; an append that
// finds buf full moves them back to the start of its array before it grows
// it. The array keeps the size it grows to: one attempt on a loss-free link;
// under classical loss, the attempts whose REPLY never came until the
// maintenance pass drops them 4,096 to 5,120 cycles later.
type pendingList struct {
	buf  []pendingAttempt
	head int
}

func (q *pendingList) live() []pendingAttempt { return q.buf[q.head:] }

func (q *pendingList) len() int { return len(q.buf) - q.head }

func (q *pendingList) push(p pendingAttempt) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, p)
}

// remove deletes the i-th oldest attempt, moving the shorter side of it.
func (q *pendingList) remove(i int) {
	live := q.live()
	if i < len(live)-1-i {
		copy(live[1:i+1], live[:i])
		q.head++
	} else {
		copy(live[i:], live[i+1:])
		q.buf = q.buf[:len(q.buf)-1]
	}
	if q.head == len(q.buf) {
		q.clear()
	}
}

// dropOldest deletes the k oldest attempts.
func (q *pendingList) dropOldest(k int) {
	q.head += k
	if q.head == len(q.buf) {
		q.clear()
	}
}

func (q *pendingList) clear() { q.buf, q.head = q.buf[:0], 0 }

// retire deletes the k oldest attempts with queue ID id, or all of them if
// fewer, keeping the others in order, and returns how many it deleted.
func (q *pendingList) retire(id wire.AbsoluteQueueID, k uint64) uint64 {
	live, w, gone := q.live(), 0, uint64(0)
	for _, p := range live {
		if gone < k && p.decision.QueueID == id {
			gone++
			continue
		}
		live[w] = p
		w++
	}
	q.buf = q.buf[:q.head+w]
	if w == 0 {
		q.clear()
	}
	return gone
}

// sameKind reports whether every attempt with d's queue ID is of d's kind
// (create-and-keep or measure-directly).
func (q *pendingList) sameKind(d PollDecision) bool {
	for _, p := range q.live() {
		if p.decision.QueueID == d.QueueID && p.decision.Keep != d.Keep {
			return false
		}
	}
	return true
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
func (n *Node) ClearPending() { n.pending.clear() }

// Attempts returns how many attempts this node has triggered.
func (n *Node) Attempts() uint64 { return n.attemptCount }

// runCycle executes one MHP cycle: poll the EGP and trigger if requested.
func (n *Node) runCycle(cycle uint64) {
	// The maintenance pass: every 1,024 cycles, discard the pending attempts
	// whose REPLY was evidently lost, so the list stays bounded during long
	// lossy runs. A parked node skips it: its list is empty. So does a
	// folding link whose lists are empty; a fold stops before the pass
	// otherwise.
	if cycle%1024 == 0 && n.pending.len() > 0 && cycle > 4096 {
		n.DropPending(cycle - 4096)
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
	l := n.link
	if l.trace != nil { // the clock is read only for a record
		keep := int64(0)
		if decision.Keep {
			keep = 1
		}
		l.trace.Record(l.eng.Now(), obs.KindMHPAttempt, l.traceID, int64(cycle), keep)
	}
	// Triggering an attempt dephases carbon-stored pairs at this node
	// (Appendix D.4.1).
	n.device.ApplyAttemptDephasing(decision.Alpha)

	n.pending.push(pendingAttempt{cycle, decision})
	l.sendGEN(n.side, cycle, decision)
}

// receiveReply processes a REPLY frame arriving from the station.
func (n *Node) receiveReply(payload *replyPayload) {
	l := n.link
	reply, err := wire.DecodeREPLY(payload.frame[:payload.size])
	pair := payload.pair
	payload.pair = nil
	l.replies.put(payload)
	if err != nil {
		return
	}
	if l.trace != nil { // the clock is read only for a record
		l.trace.Record(l.eng.Now(), obs.KindMHPReply, l.traceID, int64(reply.Outcome), int64(reply.MHPSeq))
	}
	// Match the reply to the oldest pending attempt with the echoed queue ID.
	// That is the attempt the REPLY answers only while no frame is lost: an
	// attempt whose GEN or REPLY was lost stays pending, and from then on
	// each REPLY for that queue item is credited to an older attempt than
	// its own, with that attempt's cycle, basis and storage qubit (on a Lab
	// link a REPLY answers its own cycle's attempt, the newest pending one).
	// This is a known fault, left for a change that also refreshes the
	// benchmark's lossy digest (ROADMAP.md). The fold of a lossy link
	// reproduces the rule (Link.absorb), so changing it here means changing
	// it there.
	var attempt pendingAttempt
	for i, p := range n.pending.live() {
		if p.decision.QueueID == reply.QueueID {
			attempt = p
			n.pending.remove(i)
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
		Pair:         pair,
		AttemptCycle: cycle,
	}
	n.gen.HandleResult(result)
}

// PendingAttempts returns how many attempts are awaiting a REPLY.
func (n *Node) PendingAttempts() int { return n.pending.len() }

// DropPending discards the pending attempts of cycles before olderThan; the
// node's periodic maintenance pass calls it with a cutoff 4,096 cycles back,
// since a REPLY that late was evidently lost.
func (n *Node) DropPending(olderThan uint64) {
	live := n.pending.live()
	k := 0
	for k < len(live) && live[k].cycle < olderThan {
		k++
	}
	n.pending.dropOldest(k)
}
