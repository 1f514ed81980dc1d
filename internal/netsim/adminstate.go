package netsim

import (
	"fmt"

	"repro/internal/mhp"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// LinkState is a link's administrative state, driven by the fault injection
// subsystem. Every link starts Up; a fault plan moves it through
// Up → Degraded → Down → Up transitions as ordinary sim events on the link's
// own engine, so the trajectory is identical at every shard count.
type LinkState uint8

const (
	// LinkUp is normal operation (the zero value).
	LinkUp LinkState = iota
	// LinkDegraded keeps the link serving but with raised classical loss,
	// lowered pair fidelity and/or a reduced attempt rate.
	LinkDegraded
	// LinkDown stops the link: attempt generation pauses and every queued or
	// in-flight request fails immediately with wire.ErrLinkDown.
	LinkDown
)

// String names the admin state.
func (s LinkState) String() string {
	switch s {
	case LinkUp:
		return "up"
	case LinkDegraded:
		return "degraded"
	case LinkDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Degrade parameterises the Degraded admin state. The zero value degrades
// nothing; each knob applies only when set.
type Degrade struct {
	// ClassicalLoss, when > 0, replaces the per-frame loss probability of
	// every classical channel of the link (fibres to the midpoint and the
	// node-to-node pair channel).
	ClassicalLoss float64
	// PairFidelity, when in (0,1), applies a single-qubit depolarising
	// channel of that fidelity to every freshly heralded pair.
	PairFidelity float64
	// RateDivisor, when > 1, throttles attempt generation to one poll every
	// that many MHP cycles.
	RateDivisor int
}

// State returns the link's current admin state.
func (l *Link) State() LinkState { return l.state }

// DowntimeAt returns the link's cumulative downtime including a still-open
// outage interval at the given time.
func (l *Link) DowntimeAt(now sim.Time) sim.Duration {
	d := l.Downtime
	if l.state == LinkDown {
		d += now.Sub(l.downSince)
	}
	return d
}

// SetLinkState applies an admin-state transition to one link. It must run on
// the link's own shard (the fault injector schedules it on l.Eng; calling it
// before the run starts is likewise safe). A transition to Down pauses both
// MHP endpoints, discards their in-flight attempts and drains both EGP
// queues with per-request LINKDOWN errors; a transition out of Down resumes
// generation and opens the link's time-to-recover interval. Degrade
// parameters apply on a transition to Degraded and are fully restored on the
// way back to Up.
func (nw *Network) SetLinkState(l *Link, st LinkState, deg *Degrade) {
	old := l.state
	if old == st && st != LinkDegraded {
		return
	}
	now := l.Eng.Now()
	l.state = st

	switch st {
	case LinkDown:
		l.Downs++
		l.downSince = now
		l.awaitRecovery = false
		l.MHPA.SetPaused(true)
		l.MHPB.SetPaused(true)
		l.MHPA.ClearPending()
		l.MHPB.ClearPending()
		// Drain in deterministic order: the queue master (A) first.
		l.EGPA.FailAll(wire.ErrLinkDown)
		l.EGPB.FailAll(wire.ErrLinkDown)
		nw.applyDegrade(l, nil)
	case LinkDegraded, LinkUp:
		if old == LinkDown {
			l.Downtime += now.Sub(l.downSince)
			l.repairAt = now
			l.awaitRecovery = true
			l.MHPA.SetPaused(false)
			l.MHPB.SetPaused(false)
		}
		if st == LinkDegraded {
			nw.applyDegrade(l, deg)
		} else {
			nw.applyDegrade(l, nil)
		}
	}

	l.traceNet.Record(now, obs.KindLinkState, obs.FaultTrack|uint64(l.ID), int64(st), int64(old))
	nw.cFaults.Inc()
	if nw.OnLinkStateChange != nil {
		nw.OnLinkStateChange(l, old, st)
	}
}

// applyDegrade installs (or, with a nil Degrade, restores) the link's
// degraded-mode parameters.
func (nw *Network) applyDegrade(l *Link, deg *Degrade) {
	loss := nw.Config.ClassicalLossProb
	if deg != nil && deg.ClassicalLoss > 0 {
		loss = deg.ClassicalLoss
	}
	for f := mhp.FibreAH; f <= mhp.FibreHB; f++ {
		l.Mid.SetLoss(f, loss)
	}
	l.duplex.SetLossProbability(loss)
	div := uint64(1)
	if deg != nil && deg.RateDivisor > 1 {
		div = uint64(deg.RateDivisor)
	}
	l.MHPA.SetRateDivisor(div)
	l.MHPB.SetRateDivisor(div)
	dep := 0.0
	if deg != nil {
		dep = deg.PairFidelity
	}
	l.Mid.SetDepolarizing(dep)
}

// ScheduleLinkState schedules an admin-state transition at absolute sim time
// at, as an ordinary event on the link's own engine — which is what keeps
// fault trajectories byte-identical across -parallel and -shards.
func (nw *Network) ScheduleLinkState(l *Link, at sim.Time, st LinkState, deg *Degrade) {
	sim.ScheduleAt(l.Eng, at, func() { nw.SetLinkState(l, st, deg) })
}
