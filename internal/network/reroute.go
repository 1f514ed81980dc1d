package network

import (
	"slices"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Failure-aware re-routing: when a link on an in-flight request's path goes
// administratively down, the request releases its partially built segments,
// abandons its outstanding hop CREATEs, recomputes a path that avoids the
// dead link and resubmits — with bounded exponential backoff between
// attempts, under the request's ORIGINAL deadline (the timeout scheduled at
// Create keeps running across reroutes). A request that exhausts the retry
// budget fails with LINKDOWN; one whose endpoints become unreachable (or
// whose fidelity floor no surviving path can meet) fails fast with NOROUTE.
const (
	// rerouteBackoffBase is the delay before the first re-path attempt;
	// successive attempts double it up to rerouteBackoffMax. The base is a
	// couple of MHP cycles — long enough for the drain triggered by the fault
	// to finish, short enough to not eat into the deadline.
	rerouteBackoffBase = 2 * sim.Millisecond
	rerouteBackoffMax  = 64 * sim.Millisecond
	// rerouteLimit bounds re-path attempts per request; the original deadline
	// usually fires first, this bounds deadline-less requests.
	rerouteLimit = 8
)

// rerouteBackoff is the exponential backoff before the n-th re-path attempt
// (0-based), capped at rerouteBackoffMax.
func rerouteBackoff(n uint64) sim.Duration {
	d := rerouteBackoffBase
	for ; n > 0 && d < rerouteBackoffMax; n-- {
		d *= 2
	}
	if d > rerouteBackoffMax {
		d = rerouteBackoffMax
	}
	return d
}

// handleLinkStateChange is the service's fault-injection hook: every
// transition invalidates the route cache, and a transition to Down reroutes
// every in-flight request whose live path crosses the dead link. It fires
// after the link itself has drained (EGP errors for queued hop CREATEs have
// already arrived through handleLinkError), so this pass catches requests
// whose hops on the link were past the queue — mid-swap or fully delivered.
func (s *Service) handleLinkStateChange(l *netsim.Link, old, st netsim.LinkState) {
	s.router.Invalidate()
	if st != netsim.LinkDown {
		return
	}
	ids := make([]RequestID, 0, len(s.requests))
	for id := range s.requests {
		ids = append(ids, id)
	}
	slices.Sort(ids) // deterministic order over the request map
	for _, id := range ids {
		r := s.requests[id]
		if r == nil || r.finished() || !slices.Contains(r.path.Links, l) {
			continue
		}
		s.rerouteRequest(r, l)
	}
}

// rerouteRequest tears down a request's progress after the given link died
// under it and schedules a re-path attempt. It is idempotent per fault: a
// second trigger for the same outage (link-error and state-change hooks can
// both fire) only repeats the no-op cleanup.
func (s *Service) rerouteRequest(r *requestState, dead *netsim.Link) {
	if r.finished() {
		return
	}
	// Release every partially built segment — single-link pairs and swapped
	// multi-hop stretches alike. Progress under a changed path cannot be
	// trusted to compose, so the request restarts from zero pairs-in-build
	// (delivered pairs of course remain delivered).
	for _, sg := range r.segs {
		if sg.consumed || sg.delivered {
			continue
		}
		sg.consumed = true
		sg.devA.Release(sg.pair)
		sg.devB.Release(sg.pair)
		delete(s.pendingLink, sg.pair)
	}
	for _, n := range r.path.Nodes {
		delete(s.nodeSegs[n], r.id)
	}
	// Hop CREATEs on the dead link will never emit again (the EGP drained
	// them), so retire their bookkeeping now; hops on surviving links keep
	// producing until their NumPairs are done — mark them stale so their
	// pairs are released on arrival instead of feeding the swap engine.
	if r.stale == nil {
		r.stale = make(map[hopKey]bool)
	}
	for key := range r.hopOKCount {
		if key.link == dead.ID {
			delete(s.hopOwner, key)
			delete(r.hopOKCount, key)
			r.openHops--
			continue
		}
		r.stale[key] = true
	}
	if r.rerouting {
		return // a re-path attempt is already pending; it will see fresh state
	}
	if r.retries >= rerouteLimit {
		s.failRequest(r, wire.ErrLinkDown)
		return
	}
	backoff := rerouteBackoff(r.retries)
	r.retries++
	r.rerouting = true
	s.trace.Record(s.nw.Sim.Now(), obs.KindReroute, uint64(r.id), int64(r.reroutes), int64(backoff))
	sim.Schedule(s.nw.Sim, backoff, func() { s.repath(r) })
}

// repath recomputes a request's path against the current link states and
// resubmits its remaining pairs on it. No usable path — disconnected, or
// fidelity floor infeasible on every survivor — fails the request fast with
// NOROUTE rather than letting it idle out its deadline.
func (s *Service) repath(r *requestState) {
	r.rerouting = false
	if r.finished() {
		return
	}
	path, err := s.router.Path(r.req.SrcNode, r.req.DstNode)
	if err != nil {
		s.noRoute++
		s.failRequest(r, wire.ErrNoRoute)
		return
	}
	linkFloor := PerHopFidelityFloor(r.req.MinFidelity, path.Hops(), s.cfg.SwapGateFidelity)
	for _, l := range path.Links {
		if _, ok := l.EGPA.FEU().AlphaForFidelity(linkFloor); !ok {
			s.noRoute++
			s.failRequest(r, wire.ErrNoRoute)
			return
		}
	}
	r.path = path
	r.pos = make(map[int]int, len(path.Nodes))
	for i, n := range path.Nodes {
		r.pos[n] = i
	}
	r.linkFloor = linkFloor
	r.reroutes++
	s.reroutes++
	for i, l := range path.Links {
		if code := s.submitHopCreate(r, l, path.Nodes[i], r.pairsLeft); code != wire.ErrNone {
			s.failRequest(r, code)
			return
		}
	}
}
