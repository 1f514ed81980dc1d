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
// The cycle is kept by one Clock per engine. After a poll that attempts
// nothing, a node parks until the first cycle whose poll could act, which
// its link layer reports, or an event wakes it, since its polls in between
// would be no-ops (see Clock for why the run is unchanged).
//
// A Link keeps what is in flight as plain data: one list of its GENs and
// REPLYs on their way and of the expiries of GENs held at the station,
// ordered by due time and then send order, with one event per instant in it
// and one handler that delivers everything due. Over equal arms (every Lab
// link) the GENs of a cycle share an instant, and so do its REPLYs, so an
// attempt run attempt by attempt costs two events beside the clock's tick.
// Over unequal arms, such as QL2020's, each GEN and each REPLY comes at an
// instant of its own. A GEN held at the station gets an expiry only when its
// peer's GEN is not in flight to arrive before the hold ends.
//
// A Lab link does not run its failed attempts one by one: the clock's tick
// folds the coming run of them into itself, with the same random draws and
// records, up to the link's own horizon (failed attempts on different links
// commute: each link owns its devices, sampler, station and random stream),
// and the link rests until the first cycle that succeeds or loses a frame.
// Where a network layer acts on several links from one link's event, the
// clock folds every active link in lockstep instead, up to the simulator's
// horizon (Clock.Lockstep). A lossy link folds too: each folded REPLY
// retires the oldest pending attempt of its queue item, as a delivered one
// does. QL2020 links, whose arms are long and unequal, and throttled links
// run attempt by attempt. While no node of a clock is active, the clock
// skips the ticks that would poll no one.
//
// The package is deliberately stateless on the node side (beyond the pending
// attempt bookkeeping required to route replies), mirroring the paper's
// requirement that the physical layer holds no protocol state.
package mhp

import (
	"math"
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
	// Quiet returns, after a poll at cycle that attempted nothing, the first
	// cycle whose poll could act (attempt or change the generator) unless an
	// event reaches the generator, which then wakes its node (Node.Wake):
	// math.MaxUint64 if none. The clock parks the node until then. A paused
	// or throttled node parks only on math.MaxUint64. It changes nothing.
	Quiet(cycle uint64) uint64
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

// frame is an entry of a link's list of what is due: a GEN on its way to
// the station, a REPLY on its way to a node, or the expiry of a GEN held at
// the station. A GEN carries its encoded bytes and its physical "photon" (the
// emission parameters): the photon cannot be lost independently of the frame
// here, because photon loss is already part of the optical model sampled at
// the station; what matters for protocol robustness is losing the classical
// frame. A REPLY carries the heralded pair of a success, nil otherwise.
type frame struct {
	// due is when the entry is due; a GEN held at the station keeps the
	// instant it was held.
	due sim.Time
	// side is the sending node's for a GEN, the receiving node's for a
	// REPLY, and the held GEN's for an expiry.
	side nv.PairSide
	kind frameKind
	// size is how many bytes of the encoding were sent: always the whole
	// frame from the link, shorter only for a malformed one a test builds.
	size  uint8
	bytes [max(wire.GENFrameLen, wire.REPLYFrameLen)]byte
	// alpha and cycle are a GEN's bright-state population and attempt
	// cycle (an expiry carries its GEN's cycle); pair is a REPLY's.
	alpha float64
	cycle uint64
	pair  *nv.EntangledPair
}

type frameKind uint8

const (
	genFrame frameKind = iota
	replyFrame
	holdExpiry
)

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
	// frames[head:] is everything still due, ordered by (due time, send
	// order); the slots before head are spent, so delivering an entry moves
	// no other and an entry due soon takes a spent slot. Each instant in it
	// has one event, scheduled when the first entry due then was sent;
	// onDue, built once so scheduling allocates nothing, delivers every
	// entry due at it.
	frames []frame
	head   int
	onDue  sim.ArgHandler

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
	waiting [2][]frame

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
			parked: cfg.Generators[side].Quiet(0) == math.MaxUint64,
		}
	}
	l.onDue = l.deliver
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
// neither node is paused or throttled; nothing is in flight and nothing is
// held at the station, so no REPLY will come for an attempt still pending
// (its GEN or REPLY was lost) and each folded REPLY retires the oldest
// pending attempt of its queue item; and neither the sampler nor the link
// holds a drawn attempt or loss waiting for its event. The link's horizon
// need not count its deliveries, since the fold runs only while there are
// none.
func (l *Link) canFold() bool {
	a, b := &l.nodes[nv.SideA], &l.nodes[nv.SideB]
	arm := l.arm[nv.SideA]
	return !l.perAttempt && arm == l.arm[nv.SideB] && 2*arm < l.period &&
		max(l.loss[FibreAH], l.loss[FibreBH], l.loss[FibreHA], l.loss[FibreHB]) < 1 &&
		!a.paused && !b.paused && a.rateDivisor <= 1 && b.rateDivisor <= 1 && len(l.frames) == 0 &&
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
		steady = min(steady, nextPass(cycle)-cycle)
	}
	return dA, dB, steady
}

// nextPass returns the first cycle from cycle on whose poll runs the
// maintenance pass on a node with attempts pending (Node.runCycle).
func nextPass(cycle uint64) uint64 { return max((cycle+1023)/1024*1024, 5*1024) }

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

// send puts an entry on the link's list, due after delay, and returns it for
// the caller to fill in. It rides the event of an entry already due at that
// instant, or schedules one.
func (l *Link) send(delay sim.Duration) *frame {
	due := l.eng.Now().Add(delay)
	i := len(l.frames)
	for i > l.head && l.frames[i-1].due > due {
		i--
	}
	if i == l.head || l.frames[i-1].due != due {
		l.eng.ScheduleArgAt(due, l.onDue, nil)
	}
	if l.head > 0 && i-l.head < len(l.frames)-i {
		// Fewer entries are due before it than after: move those into the
		// spent slot in front.
		l.head, i = l.head-1, i-1
		copy(l.frames[l.head:i], l.frames[l.head+1:i+1])
		l.frames[i] = frame{due: due}
		return &l.frames[i]
	}
	if len(l.frames) == cap(l.frames) && 2*l.head >= len(l.frames) {
		// Reuse the spent slots rather than grow the array, once they are
		// at least half of it.
		n := copy(l.frames, l.frames[l.head:])
		clear(l.frames[n:])
		l.frames, l.head, i = l.frames[:n], 0, i-l.head
	}
	l.frames = slices.Insert(l.frames, i, frame{due: due})
	return &l.frames[i]
}

// deliver is the link's one event handler: it delivers, in send order, every
// entry due at now.
func (l *Link) deliver(now sim.Time, _ any) {
	for l.head < len(l.frames) && l.frames[l.head].due == now {
		f := l.frames[l.head]
		l.frames[l.head] = frame{}
		if l.head++; l.head == len(l.frames) {
			l.frames, l.head = l.frames[:0], 0
		}
		switch f.kind {
		case genFrame:
			l.receiveGEN(&f)
		case replyFrame:
			l.nodes[f.side].receiveReply(&f)
		case holdExpiry:
			l.expire(now, &f)
		}
	}
}

// sendGEN sends side's GEN of the given cycle to the station, unless its
// fibre drops it.
func (l *Link) sendGEN(side nv.PairSide, cycle uint64, d PollDecision) {
	if l.lost(FibreAH + Fibre(side)) {
		return
	}
	g := l.send(l.arm[side])
	g.kind, g.side, g.size, g.alpha, g.cycle = genFrame, side, wire.GENFrameLen, d.Alpha, cycle
	wire.GENFrame{QueueID: d.QueueID, Timestamp: cycle}.Put((*[wire.GENFrameLen]byte)(g.bytes[:]))
}

// receiveGEN processes a GEN frame (and accompanying photon) arriving at the
// station from either node.
func (l *Link) receiveGEN(g *frame) {
	// Decode once on arrival; the decoded frame serves validation and the
	// matching path below, and the expiry re-reads the validated bytes.
	genSelf, err := wire.DecodeGEN(g.bytes[:g.size])
	if err != nil || (g.side != nv.SideA && g.side != nv.SideB) {
		return
	}
	// Link the message to a detection window by its timestamp: look for a
	// waiting peer GEN of the same cycle.
	peers := l.waiting[1-g.side]
	i := indexCycle(peers, g.cycle)
	if i < 0 {
		l.hold(g)
		return
	}
	peer := peers[i]
	l.waiting[peer.side] = slices.Delete(peers, i, i+1)

	// The peer frame was validated when it arrived, so its decode cannot fail.
	genPeer, _ := wire.DecodeGEN(peer.bytes[:peer.size])

	// Queue-ID consistency check.
	if genSelf.QueueID != genPeer.QueueID {
		l.queueMismatch++
		if l.trace != nil { // the clock is read only for a record
			l.trace.Record(l.eng.Now(), obs.KindHeraldDrop, l.traceID, 2, int64(g.cycle))
		}
		l.sendReplies(g.side, wire.ErrQueueMismatch, 0, genSelf.QueueID, genPeer.QueueID, nil)
		return
	}
	l.matched++

	// Perform the optical Bell-state measurement. By convention A is the
	// first argument.
	var alpha [2]float64
	alpha[g.side], alpha[peer.side] = g.alpha, peer.alpha
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
	queue[g.side], queue[peer.side] = genSelf.QueueID, genPeer.QueueID
	l.sendReplies(nv.SideA, outcome, seq, queue[nv.SideA], queue[nv.SideB], pair)
}

// hold makes a GEN that found no peer its side's waiting GEN of its cycle,
// replacing an earlier one of the same cycle. If the peer's GEN never
// arrives, the GEN's expiry reports the attempt back as NO_MESSAGE_OTHER (or
// TIME_MISMATCH when the peer was attempting other cycles). A GEN whose
// peer's GEN is in flight, due strictly before the hold would expire, is
// certain to be matched, so it needs no expiry.
func (l *Link) hold(g *frame) {
	g.due = l.eng.Now()
	w := l.waiting[g.side]
	if i := indexCycle(w, g.cycle); i >= 0 {
		w[i] = *g
	} else {
		l.waiting[g.side] = append(w, *g)
	}
	// Look for the peer's GEN among the entries due strictly before the
	// hold would expire; sent by now, it is due within its arm.
	due := g.due.Add(min(l.arm[1-g.side], l.holdTime-1))
	for i := l.head; i < len(l.frames) && l.frames[i].due <= due; i++ {
		if f := &l.frames[i]; f.kind == genFrame && f.side != g.side && f.cycle == g.cycle {
			return
		}
	}
	e := l.send(l.holdTime)
	e.kind, e.side, e.cycle = holdExpiry, g.side, g.cycle
}

// expire is a held GEN's expiry, which names the GEN by its side, cycle and
// the instant it was held. If the GEN still waits, its peer never came: the
// attempt is reported back as an error. A GEN matched or replaced since has
// left the waiting list.
func (l *Link) expire(now sim.Time, e *frame) {
	w, held := l.waiting[e.side], now-sim.Time(l.holdTime)
	i := slices.IndexFunc(w, func(g frame) bool { return g.cycle == e.cycle && g.due == held })
	if i < 0 {
		return
	}
	g := w[i]
	l.waiting[e.side] = slices.Delete(w, i, i+1)
	gen, _ := wire.DecodeGEN(g.bytes[:g.size])
	outcome, drop := wire.ErrNoMessageOther, int64(1)
	if len(l.waiting[1-e.side]) > 0 {
		outcome, drop = wire.ErrTimeMismatch, 0
		l.timeMismatch++
	} else {
		l.noOther++
	}
	l.trace.Record(now, obs.KindHeraldDrop, l.traceID, drop, int64(g.cycle))
	l.sendReply(e.side, outcome, 0, gen.QueueID, wire.AbsoluteQueueID{}, nil)
}

// indexCycle returns the index of the waiting GEN of the given cycle, or -1.
func indexCycle(w []frame, cycle uint64) int {
	return slices.IndexFunc(w, func(g frame) bool { return g.cycle == cycle })
}

// sendReply sends a REPLY to the node on side, unless its fibre drops it,
// echoing the receiver's queue ID (own) and its peer's and carrying pair (nil
// but for a success).
func (l *Link) sendReply(side nv.PairSide, outcome wire.MHPOutcome, seq uint16, own, peer wire.AbsoluteQueueID, pair *nv.EntangledPair) {
	if l.lost(FibreHA + Fibre(side)) {
		return
	}
	r := l.send(l.arm[side])
	r.kind, r.side, r.size, r.pair = replyFrame, side, wire.REPLYFrameLen, pair
	wire.REPLYFrame{Outcome: outcome, MHPSeq: seq, QueueID: own, PeerQueue: peer}.Put((*[wire.REPLYFrameLen]byte)(r.bytes[:]))
}

// sendReplies sends the REPLY pair of a matched attempt, both carrying pair:
// first to the node on side first, whose queue ID is q, then to its peer,
// whose queue ID is peerQ.
func (l *Link) sendReplies(first nv.PairSide, outcome wire.MHPOutcome, seq uint16, q, peerQ wire.AbsoluteQueueID, pair *nv.EntangledPair) {
	l.sendReply(first, outcome, seq, q, peerQ, pair)
	l.sendReply(1-first, outcome, seq, peerQ, q, pair)
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
	// node is skipped until Wake or cycle wakeAt. polled is the cycle of the
	// node's latest PollTrigger call, and parkedAt the cycle from which a
	// parked node's skipped polls count (see PolledCycle).
	clock    *Clock
	slot     int
	parked   bool
	parkedAt uint64
	wakeAt   uint64
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

// Wake returns a parked node to its clock's active set, on a REPLY or an
// event reaching the generator. A node woken during the clock's tick is
// polled in that cycle if the clock has not reached its slot yet, and from
// the next cycle otherwise, just as its own ticker would have polled it.
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

// quiet returns the first cycle after cycle whose poll may act: the
// generator's bound, and with attempts pending no later than the next
// maintenance pass.
func (n *Node) quiet(cycle uint64) uint64 {
	q := n.gen.Quiet(cycle)
	if q != math.MaxUint64 && (n.paused || n.rateDivisor > 1) {
		return 0
	}
	if n.pending.len() > 0 {
		q = min(q, nextPass(cycle+1))
	}
	return q
}

// runCycle executes one MHP cycle, polling the EGP and triggering if asked
// to, and reports whether the node attempted.
func (n *Node) runCycle(cycle uint64) bool {
	// The maintenance pass: every 1,024 cycles, discard the pending attempts
	// whose REPLY was evidently lost, so the list stays bounded during long
	// lossy runs. A parked node is woken for it while its list is non-empty.
	// So is a folding link; a fold stops before the pass.
	if cycle%1024 == 0 && n.pending.len() > 0 && cycle > 4096 {
		n.DropPending(cycle - 4096)
	}
	if n.paused {
		return false
	}
	if n.rateDivisor > 1 && cycle%n.rateDivisor != 0 {
		return false
	}
	n.polled = cycle
	decision := n.gen.PollTrigger(cycle)
	if !decision.Attempt {
		return false
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
		return true
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
	return true
}

// receiveReply processes a REPLY frame arriving from the station.
func (n *Node) receiveReply(r *frame) {
	l := n.link
	reply, err := wire.DecodeREPLY(r.bytes[:r.size])
	if err != nil {
		return
	}
	if l.trace != nil { // the clock is read only for a record
		l.trace.Record(l.eng.Now(), obs.KindMHPReply, l.traceID, int64(reply.Outcome), int64(reply.MHPSeq))
	}
	n.Wake()
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
		Pair:         r.pair,
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
