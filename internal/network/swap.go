package network

import (
	"repro/internal/classical"
	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/obs"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
)

// segment is one entangled pair spanning a contiguous stretch of a request's
// path: initially a single link pair, then — swap by swap — longer stretches
// until one spans src to dst. Endpoint a is the path-upstream end (closer to
// the request's source). Each end records the device physically holding its
// qubit and which side of the shared pair object that qubit is.
type segment struct {
	req          *requestState
	a, b         int
	pair         *nv.EntangledPair
	devA, devB   *nv.Device
	sideA, sideB nv.PairSide
	// predicted is the closed-form Werner composition of the consumed link
	// fidelities and swap-gate factors.
	predicted float64
	// linkReadyAt is the moment the last constituent link pair became
	// usable; delivery minus this is the pure swap overhead.
	linkReadyAt sim.Time
	// aReady/bReady track which ends know about the segment. For link
	// segments they mark the endpoint EGP OKs; for swapped segments, the
	// arrival of the swap-notify frames.
	aReady, bReady bool
	// corrected marks that the b end applied (or absorbed) the Pauli frame
	// correction.
	corrected bool
	placed    bool // handed to the engine (or delivered); guards duplicate placement
	consumed  bool // joined into a longer segment by a swap
	delivered bool // handed to the requester
}

// Swap-notify frames ride the lossy classical channels, so the swapping node
// retransmits them until both ends acknowledge by becoming ready (observed
// centrally; handleFrame is idempotent, so duplicates are harmless). A
// request whose frames keep vanishing is failed after the retry budget so
// its held qubits are released instead of leaking forever.
const (
	swapRetryInterval = 2 * sim.Millisecond
	swapRetryLimit    = 8
)

// pendingPairDeadline bounds how long a link pair may sit with only one
// endpoint OK. The two OKs arrive within roughly one midpoint round trip of
// each other (≲300 µs on QL2020), so a pair still half-acknowledged after
// this deadline lost its REPLY: the stored side is released and a
// replacement link CREATE is issued for the hop.
const pendingPairDeadline = 25 * sim.Millisecond

// handleLinkOK consumes link-layer OK events: create-and-keep pairs whose
// CREATE the service issued become link segments once both endpoint EGPs
// have delivered their OK (the swap engine must not touch a qubit before
// that node's EGP has stored it).
func (s *Service) handleLinkOK(l *netsim.Link, ev egp.OKEvent) {
	if !ev.Keep || ev.Pair == nil {
		return
	}
	originRole := ev.Node
	if !ev.OriginIsLocal {
		originRole = netsim.OtherRole(ev.Node)
	}
	key := hopKey{link: l.ID, originRole: originRole, createID: ev.CreateID}
	id, owned := s.hopOwner[key]
	if !owned {
		return // foreign (non network-layer) traffic on a shared link
	}
	r := s.requests[id]
	if r == nil {
		return
	}
	// Count down this hop CREATE's expected OKs (two per pair, one per
	// endpoint); a fully delivered hop retires its lookup entry so the link
	// layer's CreateID counter can never wrap onto a stale key.
	if r.hopOKCount[key]--; r.hopOKCount[key] == 0 {
		delete(s.hopOwner, key)
		delete(r.hopOKCount, key)
		r.openHops--
		defer s.maybeForget(r)
	}
	if r.finished() || r.stale[key] {
		// Late pair for a completed or failed request, or a pair from a hop
		// CREATE a reroute abandoned: free this endpoint's qubit immediately.
		l.DeviceFor(ev.Node).Release(ev.Pair)
		return
	}
	sg := s.pendingLink[ev.Pair]
	if sg == nil {
		sg = s.newLinkSegment(r, l, ev.Pair)
		s.pendingLink[ev.Pair] = sg
		r.segs = append(r.segs, sg)
		sim.Schedule(s.nw.Sim, pendingPairDeadline, func() { s.abandonIfStuck(sg) })
	}
	if l.NodeIndex(ev.Node) == sg.a {
		sg.aReady = true
	} else {
		sg.bReady = true
	}
	if sg.aReady && sg.bReady {
		delete(s.pendingLink, ev.Pair)
		s.activateLinkSegment(sg)
	}
}

// handleLinkError fails the owning end-to-end request when one of its hop
// CREATEs errors at the link layer (queue rejection, expiry, ...) — except
// for LINKDOWN, where the request survives the outage by re-pathing around
// the dead link instead. Error events are emitted at the originating
// endpoint, so ev.Node is the origin role.
func (s *Service) handleLinkError(l *netsim.Link, ev egp.ErrorEvent) {
	id, owned := s.hopOwner[hopKey{link: l.ID, originRole: ev.Node, createID: ev.CreateID}]
	if !owned {
		return
	}
	r := s.requests[id]
	if r == nil {
		return
	}
	if ev.Code == wire.ErrLinkDown {
		s.rerouteRequest(r, l)
		return
	}
	s.failRequest(r, ev.Code)
}

// abandonIfStuck reaps a link pair that never collected its second endpoint
// OK (a lost REPLY strands the pair: the acknowledged side holds a qubit the
// other side will never swap against). The stored side is released and a
// one-pair replacement CREATE re-offers the hop, so classical frame loss
// costs retries instead of stranded memory.
func (s *Service) abandonIfStuck(sg *segment) {
	if sg.placed || s.pendingLink[sg.pair] != sg {
		return // both OKs arrived (or the request already cleaned it up)
	}
	delete(s.pendingLink, sg.pair)
	sg.consumed = true // dead; failRequest must not release it again
	if sg.aReady {
		sg.devA.Release(sg.pair)
	}
	if sg.bReady {
		sg.devB.Release(sg.pair)
	}
	r := sg.req
	if r.finished() {
		return
	}
	l := s.nw.LinkBetween(sg.a, sg.b)
	if l == nil {
		return
	}
	if code := s.submitHopCreate(r, l, sg.a, 1); code != wire.ErrNone {
		s.failRequest(r, code)
	}
}

// newLinkSegment orients a fresh link pair along the request's path.
func (s *Service) newLinkSegment(r *requestState, l *netsim.Link, pair *nv.EntangledPair) *segment {
	// The hop index of this link on the path gives the orientation: the
	// path-upstream endpoint is Nodes[i].
	var up, down int
	for i := range r.path.Links {
		if r.path.Links[i] == l {
			up, down = r.path.Nodes[i], r.path.Nodes[i+1]
			break
		}
	}
	sideAt := func(node int) nv.PairSide {
		if node == l.Edge.B {
			return nv.SideB
		}
		return nv.SideA
	}
	return &segment{
		req:   r,
		a:     up,
		b:     down,
		pair:  pair,
		devA:  l.DeviceFor(roleOf(l, up)),
		devB:  l.DeviceFor(roleOf(l, down)),
		sideA: sideAt(up),
		sideB: sideAt(down),
	}
}

// activateLinkSegment makes a both-ends-ready link pair available to the
// swap engine: decoherence is advanced to now at both ends, the pair is
// twirled onto the Werner state of equal fidelity (the standard
// repeater-protocol assumption, which makes the closed-form composition
// rule exact), and its fidelity at this moment seeds the prediction.
func (s *Service) activateLinkSegment(sg *segment) {
	now := s.nw.Sim.Now()
	sg.devA.ApplyDecoherence(sg.pair, sg.sideA, now)
	sg.devB.ApplyDecoherence(sg.pair, sg.sideB, now)
	sg.predicted = sg.pair.State.Twirl(sg.pair.HeraldedAs)
	sg.linkReadyAt = now
	sg.corrected = true // link pairs are delivered in the |Ψ+⟩ frame
	s.trace.Record(now, obs.KindE2ESegment, uint64(sg.req.id), int64(sg.a), int64(sg.b))
	s.placeSegment(sg)
}

// placeSegment routes a usable segment: src–dst spans deliver, everything
// else registers at both end nodes and triggers the swap engine there.
func (s *Service) placeSegment(sg *segment) {
	if sg.placed {
		return // duplicate (retransmitted) readiness; already handed over
	}
	sg.placed = true
	r := sg.req
	if r.finished() {
		sg.devA.Release(sg.pair)
		sg.devB.Release(sg.pair)
		return
	}
	if sg.a == r.req.SrcNode && sg.b == r.req.DstNode {
		s.deliver(sg)
		return
	}
	s.nodeSegs[sg.a][r.id] = append(s.nodeSegs[sg.a][r.id], sg)
	s.nodeSegs[sg.b][r.id] = append(s.nodeSegs[sg.b][r.id], sg)
	for s.trySwap(sg.a, r) {
	}
	for s.trySwap(sg.b, r) {
	}
}

// trySwap performs one swap at node n for the request if n currently holds
// both a segment ending there and one starting there (swap-as-soon-as-
// possible scheduling). It reports whether a swap happened.
func (s *Service) trySwap(n int, r *requestState) bool {
	segs := s.nodeSegs[n][r.id]
	li, ri := -1, -1
	for i, sg := range segs {
		if sg.b == n && li < 0 {
			li = i
		}
		if sg.a == n && ri < 0 {
			ri = i
		}
	}
	if li < 0 || ri < 0 {
		return false
	}
	segL, segR := segs[li], segs[ri]
	s.unregisterSegment(segL)
	s.unregisterSegment(segR)
	s.performSwap(n, segL, segR)
	return true
}

// unregisterSegment removes a segment from both end-node registries.
func (s *Service) unregisterSegment(sg *segment) {
	for _, n := range [2]int{sg.a, sg.b} {
		list := s.nodeSegs[n][sg.req.id]
		for i, x := range list {
			if x == sg {
				s.nodeSegs[n][sg.req.id] = append(list[:i:i], list[i+1:]...)
				break
			}
		}
	}
}

// performSwap joins two adjacent segments at node n: a Bell-state
// measurement on n's two qubits (through the configured BSM gate noise)
// produces the composed far-end pair; n's qubits are freed, the far devices
// are rebound onto the new pair, and the outcome's Pauli correction is
// signalled to the new segment's ends over the classical channels.
func (s *Service) performSwap(n int, segL, segR *segment) {
	now := s.nw.Sim.Now()
	devL, devR := segL.devB, segR.devA
	devL.ApplyDecoherence(segL.pair, segL.sideB, now)
	devR.ApplyDecoherence(segR.pair, segR.sideA, now)

	u := s.nw.Sim.RNG().Float64()
	reduced, outcome := segL.pair.State.SwapWith(segR.pair.State,
		int(segL.sideB), int(segR.sideA), s.cfg.SwapGateFidelity, u)
	label := quantum.SwappedBell(segL.pair.HeraldedAs, segR.pair.HeraldedAs, outcome)
	newPair := nv.NewSwappedPair(reduced, label, segL.pair, segL.sideA, segR.pair, segR.sideB, now)

	devL.Release(segL.pair)
	devR.Release(segR.pair)
	_ = segL.devA.Rebind(segL.pair, newPair, nv.SideA)
	_ = segR.devB.Rebind(segR.pair, newPair, nv.SideB)
	segL.consumed, segR.consumed = true, true
	s.swaps++
	s.trace.Record(now, obs.KindE2ESwap, uint64(segL.req.id), int64(n), int64(label))

	r := segL.req
	sg := &segment{
		req:       r,
		a:         segL.a,
		b:         segR.b,
		pair:      newPair,
		devA:      segL.devA,
		devB:      segR.devB,
		sideA:     nv.SideA,
		sideB:     nv.SideB,
		predicted: quantum.SwapPredictFidelity(segL.predicted, segR.predicted, s.cfg.SwapGateFidelity),
	}
	if sg.linkReadyAt = segL.linkReadyAt; segR.linkReadyAt > sg.linkReadyAt {
		sg.linkReadyAt = segR.linkReadyAt
	}
	r.segs = append(r.segs, sg)

	// Inform the a end, and ship the Pauli frame to the b end (which applies
	// the correction). The segment becomes usable when both frames arrived;
	// lost frames are retransmitted until then.
	fa := swapFrame{ReqID: r.id, Dst: sg.a, Seg: sg, End: nv.SideA}
	fb := swapFrame{ReqID: r.id, Dst: sg.b, Seg: sg, End: nv.SideB, Label: label}
	s.sendFrame(n, fa)
	s.sendFrame(n, fb)
	s.scheduleFrameRetry(n, sg, fa, fb, 0)
}

// scheduleFrameRetry re-sends a swap's notify frames until both segment ends
// are informed, failing the request (and releasing its qubits) once the
// retry budget is exhausted — a permanently partitioned control channel must
// not strand memory qubits forever.
func (s *Service) scheduleFrameRetry(n int, sg *segment, fa, fb swapFrame, retries int) {
	sim.Schedule(s.nw.Sim, swapRetryInterval, func() {
		if sg.placed || sg.consumed || sg.req.finished() {
			// consumed covers segments torn down by a reroute: their qubits
			// are already released, retrying (or failing the request over
			// them) would be wrong.
			return
		}
		if retries >= swapRetryLimit {
			s.failRequest(sg.req, wire.ErrTimeout)
			return
		}
		if !sg.aReady {
			s.sendFrame(n, fa)
		}
		if !sg.bReady {
			s.sendFrame(n, fb)
		}
		s.scheduleFrameRetry(n, sg, fa, fb, retries+1)
	})
}

// swapFrame is the network-layer message announcing a swap result to one end
// of the new segment. Frames are forwarded hop by hop along the request's
// path; Seg is an in-memory reference (see the package comment on frame
// encoding).
type swapFrame struct {
	ReqID RequestID
	Dst   int
	Seg   *segment
	End   nv.PairSide
	// Label is the pre-correction Bell label; the b end rotates the pair
	// back into the |Ψ+⟩ frame on receipt.
	Label quantum.BellState
}

// sendFrame forwards a frame one hop from node towards its destination.
func (s *Service) sendFrame(from int, f swapFrame) {
	r := s.requests[f.ReqID]
	if r == nil {
		return
	}
	pf, okF := r.pos[from]
	pd, okD := r.pos[f.Dst]
	if !okF || !okD || pf == pd {
		return
	}
	next := r.path.Nodes[pf+1]
	if pd < pf {
		next = r.path.Nodes[pf-1]
	}
	port, ok := s.nw.NetworkPort(from, next)
	if !ok {
		return
	}
	s.framesSent++
	port.Send(f)
}

// handleFrame processes a network-layer frame arriving at a node: transit
// frames are forwarded along the path, terminal frames update the segment
// (applying the Pauli correction at the b end) and hand it to the engine
// once both ends are informed.
func (s *Service) handleFrame(node int, msg classical.Message) {
	f, ok := msg.Payload.(swapFrame)
	if !ok {
		return
	}
	if f.Dst != node {
		s.sendFrame(node, f)
		return
	}
	sg := f.Seg
	r := sg.req
	if r.finished() {
		// The request died while the frame was in flight; free this end.
		if f.End == nv.SideA {
			sg.devA.Release(sg.pair)
		} else {
			sg.devB.Release(sg.pair)
		}
		return
	}
	if sg.consumed {
		// A reroute tore this segment down while the frame was in flight; its
		// qubits are already released.
		return
	}
	if f.End == nv.SideA {
		sg.aReady = true
	} else {
		if !sg.corrected {
			sg.corrected = true
			s.trace.Record(s.nw.Sim.Now(), obs.KindE2ECorrection, uint64(r.id), int64(node), int64(f.Label))
			// Advance decoherence to the correction moment first — Pauli
			// rotations do not commute with amplitude damping.
			sg.devB.ApplyDecoherence(sg.pair, sg.sideB, s.nw.Sim.Now())
			if !quantum.CorrectionIsIdentity(f.Label, quantum.PsiPlus) {
				// The b end's qubit is qubit 1 (side B) of the pair state.
				sg.pair.State.ApplyPauli(1, quantum.CorrectionPauliOp(f.Label, quantum.PsiPlus))
			}
			sg.pair.HeraldedAs = quantum.PsiPlus
		}
		sg.bReady = true
	}
	if sg.aReady && sg.bReady {
		s.placeSegment(sg)
	}
}
