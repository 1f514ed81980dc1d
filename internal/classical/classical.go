// Package classical models the non-quantum communication used by the
// protocol stack: point-to-point message channels with propagation delay and
// configurable frame loss, plus the 1000BASE-ZX optical-link error model of
// Appendix D.6 that maps a link budget to a frame-error probability.
//
// The protocols treat classical communication as authenticated and ordered
// (802.1AE-style, Section 5); the channel model therefore only injects
// losses (dropped frames) and never corruption, matching the paper's
// robustness study where the loss probability is artificially inflated up to
// 10⁻⁴.
package classical

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/sim"
)

// LinkBudget describes a deployed single-mode fibre link for the
// 1000BASE-ZX frame-error model (Appendix D.6.1). All values are in dB
// except the distance.
type LinkBudget struct {
	LengthKM         float64
	AttenuationDBKM  float64 // 0.5 dB/km worst case
	Connectors       int     // 0.7 dB each
	Splices          int     // 0.3 dB each (the appendix's exaggerated case) or 0.1 dB
	SpliceLossDB     float64
	ConnectorLossDB  float64
	SafetyMarginDB   float64 // 3 dB
	TxPowerDBm       float64 // −1 dBm worst case
	RxSensitivityDBm float64 // −24 dBm receiver sensitivity
}

// DefaultLinkBudget returns the conservative worst-case budget used by the
// paper for a link of the given length with the given number of splices.
func DefaultLinkBudget(lengthKM float64, splices int) LinkBudget {
	return LinkBudget{
		LengthKM:         lengthKM,
		AttenuationDBKM:  0.5,
		Connectors:       2,
		Splices:          splices,
		SpliceLossDB:     0.3,
		ConnectorLossDB:  0.7,
		SafetyMarginDB:   3,
		TxPowerDBm:       -1,
		RxSensitivityDBm: -24,
	}
}

// TotalLossDB returns the total optical loss of the link.
func (b LinkBudget) TotalLossDB() float64 {
	return b.LengthKM*b.AttenuationDBKM +
		float64(b.Connectors)*b.ConnectorLossDB +
		float64(b.Splices)*b.SpliceLossDB +
		b.SafetyMarginDB
}

// ReceivedPowerDBm returns the optical power arriving at the receiver.
func (b LinkBudget) ReceivedPowerDBm() float64 { return b.TxPowerDBm - b.TotalLossDB() }

// MarginDB returns the power margin above the receiver sensitivity; negative
// margins mean the link is below sensitivity and effectively disconnected.
func (b LinkBudget) MarginDB() float64 { return b.ReceivedPowerDBm() - b.RxSensitivityDBm }

// snrPoint maps a received power margin to a frame error probability; the
// table reproduces the qualitative behaviour of the campus-measurement-based
// model of the appendix (James 2005): essentially error-free above a few dB
// of margin, a very narrow transition region, then total loss.
type snrPoint struct {
	marginDB float64
	frameErr float64
}

var frameErrorCurve = []snrPoint{
	{-3.0, 1.0},
	{-1.0, 0.5},
	{0.0, 1e-2},
	{0.5, 1e-4},
	{1.0, 4e-8},
	{2.0, 1e-10},
	{4.0, 1e-13},
	{8.0, 0.0},
}

// FrameErrorProbability maps the link budget to a per-frame loss probability
// by interpolating the margin → error curve (linear interpolation in
// log-probability, as in the appendix's treatment of unmeasured SNR points).
func (b LinkBudget) FrameErrorProbability() float64 {
	m := b.MarginDB()
	pts := frameErrorCurve
	if m <= pts[0].marginDB {
		return pts[0].frameErr
	}
	if m >= pts[len(pts)-1].marginDB {
		return pts[len(pts)-1].frameErr
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].marginDB >= m })
	lo, hi := pts[i-1], pts[i]
	t := (m - lo.marginDB) / (hi.marginDB - lo.marginDB)
	// Interpolate in log space, guarding the zero endpoint.
	loP := math.Max(lo.frameErr, 1e-300)
	hiP := math.Max(hi.frameErr, 1e-300)
	p := math.Exp(math.Log(loP)*(1-t) + math.Log(hiP)*t)
	if p < 1e-200 {
		return 0
	}
	return p
}

// UndetectedCRCErrorProbability returns the probability that a frame error
// escapes the IEEE 802.3 CRC (Appendix D.6.2). The appendix computes
// ≈1.4×10⁻²³ even for the highly spliced case, so the model returns the
// frame error probability scaled by the CRC escape factor for the maximum
// MTU; the stack ignores these errors, and tests assert they are negligible.
func (b LinkBudget) UndetectedCRCErrorProbability() float64 {
	const crcEscapeFactor = 3.5e-16 // calibrated to reproduce ≈1.4e-23 at 4e-8 frame error
	return b.FrameErrorProbability() * crcEscapeFactor
}

// Message is an opaque payload delivered by a Channel.
type Message struct {
	Payload any
	SentAt  sim.Time
}

// Port is the sending half of a classical link as seen by one protocol
// instance: implementations deliver the payload to the far end after the
// link's propagation delay, possibly tagging or multiplexing it en route.
// Channel is the direct (untagged) implementation; TagPort wraps another
// Port for delivery through a Mux.
type Port interface {
	Send(payload any)
	Delay() sim.Duration
}

// TaggedPayload wraps a payload with a numeric tag so several protocol
// instances can share one physical channel; the receiving Mux dispatches on
// the tag. In the network layer the tag is the link ID.
type TaggedPayload struct {
	Tag     uint64
	Payload any
}

// TagPort is a Port that wraps every payload in a TaggedPayload before
// handing it to the underlying port. One TagPort per protocol instance turns
// a shared node-to-node channel into that instance's private link.
type TagPort struct {
	Tag   uint64
	Under Port
}

// Send tags the payload and forwards it on the underlying port.
func (p TagPort) Send(payload any) { p.Under.Send(TaggedPayload{Tag: p.Tag, Payload: payload}) }

// Delay returns the underlying port's propagation delay.
func (p TagPort) Delay() sim.Duration { return p.Under.Delay() }

// Mux dispatches tagged messages arriving on any number of channels to
// per-tag handlers. It is the receive side of TagPort: a node registers one
// handler per link ID and points every incoming channel's delivery function
// at Deliver.
//
// The handler map is written only while the topology is being built; under
// the sharded engine a boundary node's Mux is invoked from every shard that
// owns one of the node's links, so the counters are atomic (each handler
// itself only touches the state of the link it is registered for, which is
// owned by the delivering shard).
type Mux struct {
	handlers map[uint64]func(Message)
	routed   atomic.Uint64
	dropped  atomic.Uint64
}

// NewMux creates an empty demultiplexer.
func NewMux() *Mux {
	return &Mux{handlers: make(map[uint64]func(Message))}
}

// Handle registers the handler for one tag, replacing any previous handler.
func (m *Mux) Handle(tag uint64, h func(Message)) {
	if h == nil {
		panic("classical: nil mux handler")
	}
	m.handlers[tag] = h
}

// Deliver unwraps a TaggedPayload message and invokes the handler registered
// for its tag, preserving the original send time. Messages that are not
// tagged, or whose tag has no handler, are counted as dropped.
func (m *Mux) Deliver(msg Message) {
	tp, ok := msg.Payload.(TaggedPayload)
	if !ok {
		m.dropped.Add(1)
		return
	}
	h, ok := m.handlers[tp.Tag]
	if !ok {
		m.dropped.Add(1)
		return
	}
	m.routed.Add(1)
	h(Message{Payload: tp.Payload, SentAt: msg.SentAt})
}

// Stats returns how many messages were routed to a handler and how many were
// dropped for missing tags or untagged payloads.
func (m *Mux) Stats() (routed, dropped uint64) { return m.routed.Load(), m.dropped.Load() }

// Channel is a unidirectional, ordered, lossy message channel with a fixed
// propagation delay, built on the discrete-event simulator: the node-to-node
// link carrying the DQP/EGP frames and the network layer's. Send draws the
// loss Bernoulli and schedules the delivery; the delivery handler recovers
// the send time from its own firing timestamp. (A link's GEN and REPLY
// frames do not use Channels: the link's MHP schedules their deliveries
// itself, see package mhp.)
type Channel struct {
	Name     string
	simul    sim.Engine
	delay    sim.Duration
	lossProb float64
	deliver  func(Message)
	// onDeliver is the delivery trampoline handed to the simulator: built
	// once so Send schedules a pooled argument-carrying event instead of
	// allocating a capturing closure per frame.
	onDeliver sim.ArgHandler

	sent      uint64
	delivered uint64
	dropped   uint64
}

// NewChannel creates a channel delivering messages to the given handler
// after delay, dropping each frame independently with probability lossProb.
func NewChannel(name string, s sim.Engine, delay sim.Duration, lossProb float64, deliver func(Message)) *Channel {
	if lossProb < 0 || lossProb > 1 {
		panic("classical: loss probability out of [0,1]")
	}
	if deliver == nil {
		panic("classical: nil delivery handler")
	}
	c := &Channel{Name: name, simul: s, delay: delay, lossProb: lossProb, deliver: deliver}
	c.onDeliver = func(now sim.Time, payload any) {
		c.delivered++
		// The event fires exactly delay after Send, so the send time is
		// recovered from the delivery timestamp instead of being carried
		// per frame.
		c.deliver(Message{Payload: payload, SentAt: now.Add(-c.delay)})
	}
	return c
}

// Delay returns the one-way propagation delay of the channel.
func (c *Channel) Delay() sim.Duration { return c.delay }

// SetLossProbability changes the per-frame loss probability (used by the
// robustness experiments to inflate losses mid-configuration).
func (c *Channel) SetLossProbability(p float64) {
	if p < 0 || p > 1 {
		panic("classical: loss probability out of [0,1]")
	}
	c.lossProb = p
}

// LossProbability returns the configured per-frame loss probability.
func (c *Channel) LossProbability() float64 { return c.lossProb }

// Send transmits a payload. The frame is either dropped (with the configured
// probability) or delivered to the handler after the propagation delay. The
// hot path allocates nothing: the payload is already boxed at the call site
// and rides the pooled event straight into the delivery trampoline.
func (c *Channel) Send(payload any) {
	c.sent++
	if c.simul.RNG().Bernoulli(c.lossProb) {
		c.dropped++
		return
	}
	sim.ScheduleArg(c.simul, c.delay, c.onDeliver, payload)
}

// Stats returns how many frames were sent, delivered and dropped so far.
// Delivered counts frames whose delivery event has already fired.
func (c *Channel) Stats() (sent, delivered, dropped uint64) {
	return c.sent, c.delivered, c.dropped
}

// Duplex bundles the two directions of a node-to-node (or node-to-midpoint)
// classical link.
type Duplex struct {
	AtoB *Channel
	BtoA *Channel
}

// NewDuplex builds a symmetric duplex link between two handlers.
func NewDuplex(name string, s sim.Engine, delay sim.Duration, lossProb float64, deliverAtB, deliverAtA func(Message)) *Duplex {
	return &Duplex{
		AtoB: NewChannel(name+"/a->b", s, delay, lossProb, deliverAtB),
		BtoA: NewChannel(name+"/b->a", s, delay, lossProb, deliverAtA),
	}
}

// SetLossProbability updates both directions.
func (d *Duplex) SetLossProbability(p float64) {
	d.AtoB.SetLossProbability(p)
	d.BtoA.SetLossProbability(p)
}
