package mhp

import (
	"testing"

	"repro/internal/nv"
	"repro/internal/photonics"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
)

// stubGenerator is a scripted link layer: it answers polls from a queue of
// decisions and records the cycle of every attempt it triggers and every
// result it receives, with the time it came on clock.
type stubGenerator struct {
	decisions []PollDecision
	attempts  []uint64
	results   []Result
	resultAt  []sim.Time
	clock     sim.Engine
	// onPoll, if set, runs at the start of every poll.
	onPoll func(cycle uint64)
}

func (s *stubGenerator) PollTrigger(cycle uint64) PollDecision {
	if s.onPoll != nil {
		s.onPoll(cycle)
	}
	if len(s.decisions) == 0 {
		return PollDecision{}
	}
	d := s.decisions[0]
	s.decisions = s.decisions[1:]
	if d.Attempt {
		s.attempts = append(s.attempts, cycle)
	}
	return d
}

func (s *stubGenerator) HandleResult(r Result) {
	s.results = append(s.results, r)
	s.resultAt = append(s.resultAt, s.clock.Now())
}

// Idle is always false: the stub never wakes its node, so it must not park.
func (s *stubGenerator) Idle() bool { return false }

// harness is one link's MHP between two scripted link layers.
type harness struct {
	s        *sim.Simulator
	genA     *stubGenerator
	genB     *stubGenerator
	link     *Link
	nodeA    *Node
	nodeB    *Node
	registry *PairRegistry
	clock    *Clock
}

func newHarness(t *testing.T, loss float64) *harness {
	t.Helper()
	return newHarnessArms(t, loss, 10*sim.Nanosecond, 10*sim.Nanosecond, 100*sim.Microsecond)
}

// newHarnessArms is newHarness with the given one-way delays of the A and B
// arms, each used both ways, and the station's hold time.
func newHarnessArms(t *testing.T, loss float64, armA, armB, hold sim.Duration) *harness {
	t.Helper()
	s := sim.New(9)
	h := &harness{s: s, genA: &stubGenerator{clock: s}, genB: &stubGenerator{clock: s}}
	platform := nv.LabPlatform()
	h.registry = NewPairRegistry()
	h.link = NewLink(LinkConfig{
		Sim: s, Sampler: photonics.NewLinkSampler(platform.Optics), Registry: h.registry,
		Generators: [2]Generator{h.genA, h.genB},
		Devices: [2]*nv.Device{
			nv.NewDevice("A", platform.Gates, platform.CarbonCoupling, 1),
			nv.NewDevice("B", platform.Gates, platform.CarbonCoupling, 1),
		},
		Arms: [2]sim.Duration{armA, armB}, Loss: loss,
		CycleTime: sim.DurationMicroseconds(10.12),
		HoldTime:  hold,
	})
	h.nodeA, h.nodeB = h.link.Node(nv.SideA), h.link.Node(nv.SideB)
	return h
}

// start runs both nodes on one clock and returns its stop function.
func (h *harness) start() (stop func()) {
	h.clock = NewClock(h.s)
	h.clock.Add(h.nodeA)
	h.clock.Add(h.nodeB)
	return h.clock.Start()
}

// newGENPayload builds a GEN as a node would send it (frames longer than a
// GEN are truncated).
func newGENPayload(frame []byte, alpha float64, side nv.PairSide, cycle uint64) *genPayload {
	p := &genPayload{alpha: alpha, side: side, cycle: cycle}
	p.size = uint8(copy(p.frame[:], frame))
	return p
}

// newREPLYPayload builds a REPLY to the node on side (frames longer than a
// REPLY are truncated).
func newREPLYPayload(frame []byte, side nv.PairSide) *replyPayload {
	p := &replyPayload{side: side}
	p.size = uint8(copy(p.frame[:], frame))
	return p
}

func attemptDecision(qid wire.AbsoluteQueueID, alpha float64) PollDecision {
	return PollDecision{Attempt: true, QueueID: qid, Keep: false, Alpha: alpha, MeasureBasis: quantum.BasisZ}
}

func TestMatchedAttemptProducesReplies(t *testing.T) {
	h := newHarness(t, 0)
	qid := wire.AbsoluteQueueID{QueueID: 2, QueueSeq: 1}
	// Use alpha = 0.5 repeatedly so a success shows up quickly; run many
	// cycles and check that both nodes receive one result per attempt.
	const cycles = 400
	for i := 0; i < cycles; i++ {
		h.genA.decisions = append(h.genA.decisions, attemptDecision(qid, 0.5))
		h.genB.decisions = append(h.genB.decisions, attemptDecision(qid, 0.5))
	}
	stop := h.start()
	_ = h.s.RunFor(sim.Duration(cycles+10) * sim.DurationMicroseconds(10.12))
	stop()

	if len(h.genA.results) == 0 || len(h.genB.results) == 0 {
		t.Fatal("both nodes should receive results")
	}
	if len(h.genA.results) != len(h.genB.results) {
		t.Fatalf("result counts differ: %d vs %d", len(h.genA.results), len(h.genB.results))
	}
	matched, _, timeMis, queueMis, _ := h.link.Stats()
	if matched == 0 {
		t.Fatal("midpoint should match attempts")
	}
	if timeMis != 0 || queueMis != 0 {
		t.Fatalf("synchronised attempts should not mismatch: time=%d queue=%d", timeMis, queueMis)
	}
	// Every result must echo the submitted queue ID.
	for _, r := range h.genA.results {
		if r.QueueID != qid {
			t.Fatalf("result echoes wrong queue ID: %v", r.QueueID)
		}
		if r.Outcome.IsError() {
			t.Fatalf("unexpected protocol error: %v", r.Outcome)
		}
	}
}

func TestSuccessRegistersPairForBothNodes(t *testing.T) {
	h := newHarness(t, 0)
	qid := wire.AbsoluteQueueID{QueueID: 2, QueueSeq: 3}
	const cycles = 3000
	for i := 0; i < cycles; i++ {
		h.genA.decisions = append(h.genA.decisions, attemptDecision(qid, 0.5))
		h.genB.decisions = append(h.genB.decisions, attemptDecision(qid, 0.5))
	}
	stop := h.start()
	_ = h.s.RunFor(sim.Duration(cycles+10) * sim.DurationMicroseconds(10.12))
	stop()

	var successA, successB int
	for _, r := range h.genA.results {
		if r.Outcome.Success() {
			successA++
			if r.Pair == nil {
				t.Fatal("successful result should carry the shared pair")
			}
			if r.MHPSeq == 0 {
				t.Fatal("successful result should carry a sequence number")
			}
		}
	}
	for _, r := range h.genB.results {
		if r.Outcome.Success() {
			successB++
			if r.Pair == nil {
				t.Fatal("peer's successful result should carry the shared pair")
			}
		}
	}
	_, successes, _, _, _ := h.link.Stats()
	if successes == 0 {
		t.Skip("no heralded success in this bounded run (psucc ≈ 3e-4); statistical")
	}
	if uint64(successA) != successes || uint64(successB) != successes {
		t.Fatalf("success counts disagree: midpoint=%d A=%d B=%d", successes, successA, successB)
	}
}

func TestQueueMismatchReported(t *testing.T) {
	h := newHarness(t, 0)
	qidA := wire.AbsoluteQueueID{QueueID: 2, QueueSeq: 1}
	qidB := wire.AbsoluteQueueID{QueueID: 2, QueueSeq: 9}
	h.genA.decisions = []PollDecision{attemptDecision(qidA, 0.3)}
	h.genB.decisions = []PollDecision{attemptDecision(qidB, 0.3)}
	stop := h.start()
	_ = h.s.RunFor(2 * sim.Millisecond)
	stop()

	_, _, _, queueMis, _ := h.link.Stats()
	if queueMis != 1 {
		t.Fatalf("expected one queue mismatch, got %d", queueMis)
	}
	if len(h.genA.results) != 1 || h.genA.results[0].Outcome != wire.ErrQueueMismatch {
		t.Fatalf("node A should receive QUEUE_MISMATCH, got %+v", h.genA.results)
	}
	if len(h.genB.results) != 1 || h.genB.results[0].Outcome != wire.ErrQueueMismatch {
		t.Fatalf("node B should receive QUEUE_MISMATCH, got %+v", h.genB.results)
	}
	// The error reply echoes both nodes' submitted IDs.
	if h.genA.results[0].PeerQueue != qidB {
		t.Fatalf("peer queue ID not echoed: %v", h.genA.results[0].PeerQueue)
	}
}

func TestNoMessageOtherReported(t *testing.T) {
	h := newHarness(t, 0)
	qid := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
	// Only node A attempts.
	h.genA.decisions = []PollDecision{attemptDecision(qid, 0.3)}
	stop := h.start()
	_ = h.s.RunFor(2 * sim.Millisecond)
	stop()

	_, _, _, _, noOther := h.link.Stats()
	if noOther != 1 {
		t.Fatalf("expected one NO_MESSAGE_OTHER, got %d", noOther)
	}
	if len(h.genA.results) != 1 || h.genA.results[0].Outcome != wire.ErrNoMessageOther {
		t.Fatalf("node A should receive NO_MESSAGE_OTHER, got %+v", h.genA.results)
	}
	if len(h.genB.results) != 0 {
		t.Fatal("node B never attempted and should receive nothing")
	}
}

func TestTimestampMatchingUnderOffset(t *testing.T) {
	// A attempts in cycle 1, B only in cycle 3: the station must not pair
	// them; both eventually receive TIME_MISMATCH or NO_MESSAGE_OTHER.
	h := newHarness(t, 0)
	qid := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
	h.genA.decisions = []PollDecision{attemptDecision(qid, 0.3)}
	h.genB.decisions = []PollDecision{{}, {}, attemptDecision(qid, 0.3)}
	stop := h.start()
	_ = h.s.RunFor(2 * sim.Millisecond)
	stop()

	matched, _, timeMis, _, noOther := h.link.Stats()
	if matched != 0 {
		t.Fatal("attempts from different cycles must not be matched")
	}
	if timeMis+noOther < 2 {
		t.Fatalf("both unmatched attempts should be reported: time=%d noOther=%d", timeMis, noOther)
	}
}

func TestGENFailWhenCommBusy(t *testing.T) {
	h := newHarness(t, 0)
	// Occupy node A's communication qubit so a K attempt cannot start.
	pair := nv.NewEntangledPair(quantum.NewBellState(quantum.PsiPlus), quantum.PsiPlus, 0)
	if err := h.nodeA.device.StorePair(pair, nv.SideA); err != nil {
		t.Fatalf("StorePair: %v", err)
	}
	h.genA.decisions = []PollDecision{{Attempt: true, Keep: true, Alpha: 0.3, QueueID: wire.AbsoluteQueueID{}}}
	stop := h.start()
	_ = h.s.RunFor(100 * sim.Microsecond)
	stop()
	if len(h.genA.results) != 1 || h.genA.results[0].Outcome != wire.ErrGeneralFailure {
		t.Fatalf("expected a local GEN_FAIL, got %+v", h.genA.results)
	}
	if h.nodeA.Attempts() != 0 {
		t.Fatal("a failed local attempt must not reach the midpoint")
	}
}

func TestPairRegistry(t *testing.T) {
	r := NewPairRegistry()
	if r.Len() != 0 || r.Get(1) != nil {
		t.Fatal("fresh registry should be empty")
	}
	pair := nv.NewEntangledPair(quantum.NewBellState(quantum.PsiPlus), quantum.PsiPlus, 0)
	r.Put(5, pair)
	if r.Get(5) != pair || r.Len() != 1 {
		t.Fatal("registry lookup failed")
	}
	r.Forget(5)
	if r.Get(5) != nil || r.Len() != 0 {
		t.Fatal("Forget should remove the pair")
	}
	// The registry prunes entries far behind the newest sequence number.
	for seq := uint16(1); seq <= 3000; seq++ {
		r.Put(seq, pair)
	}
	if r.Len() > 2100 {
		t.Fatalf("registry should prune old entries, holds %d", r.Len())
	}
	if r.Get(3000) == nil {
		t.Fatal("recent entries must survive pruning")
	}
}

func TestNodeCycleCountingAndPending(t *testing.T) {
	h := newHarness(t, 1.0) // every frame is lost
	qid := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
	h.genA.decisions = []PollDecision{attemptDecision(qid, 0.3), attemptDecision(qid, 0.3)}
	stop := h.start()
	_ = h.s.RunFor(100 * sim.Microsecond)
	stop()
	if h.nodeA.Cycle() == 0 {
		t.Fatal("cycles should advance")
	}
	if h.nodeA.Attempts() != 2 {
		t.Fatalf("both attempts should be triggered, got %d", h.nodeA.Attempts())
	}
	if h.nodeA.PendingAttempts() != 2 {
		t.Fatalf("lost replies leave attempts pending, got %d", h.nodeA.PendingAttempts())
	}
	h.nodeA.DropPending(h.nodeA.Cycle() + 1)
	if h.nodeA.PendingAttempts() != 0 {
		t.Fatal("DropPending should clear stale attempts")
	}
}

// A REPLY answers the oldest pending attempt with its queue ID: when one
// REPLY is lost, the next one for the same queue item reports the older
// attempt's cycle, and attempts of other queue items are skipped and stay
// pending. DropPending removes exactly the attempts before its cutoff.
func TestReplyMatchesOldestPendingAttempt(t *testing.T) {
	h := newHarness(t, 1.0) // every frame is lost; REPLYs are delivered by hand
	q1 := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
	q2 := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 2}
	h.genA.decisions = []PollDecision{
		attemptDecision(q1, 0.3), attemptDecision(q2, 0.3), attemptDecision(q1, 0.3),
		attemptDecision(q1, 0.3), attemptDecision(q2, 0.3),
	}
	stop := h.start()
	_ = h.s.RunFor(100 * sim.Microsecond)
	stop()
	c := h.genA.attempts
	if len(c) != 5 || h.nodeA.PendingAttempts() != 5 {
		t.Fatalf("want 5 pending attempts, got %d of %d triggered", h.nodeA.PendingAttempts(), len(c))
	}
	reply := func(q wire.AbsoluteQueueID) uint64 {
		t.Helper()
		frame := wire.REPLYFrame{Outcome: wire.OutcomeFailure, QueueID: q, PeerQueue: q}.Encode()
		h.nodeA.receiveReply(newREPLYPayload(frame, nv.SideA))
		return h.genA.results[len(h.genA.results)-1].AttemptCycle
	}

	// The first q1 attempt's REPLY was lost; the next q1 REPLY answers it.
	if got := reply(q1); got != c[0] {
		t.Fatalf("REPLY answered the attempt of cycle %d, want the oldest q1 attempt's %d", got, c[0])
	}
	// The next q1 REPLY skips the q2 attempt in between.
	if got := reply(q1); got != c[2] {
		t.Fatalf("REPLY answered the attempt of cycle %d, want %d", got, c[2])
	}
	if n := h.nodeA.PendingAttempts(); n != 3 {
		t.Fatalf("%d attempts pending, want the q2 attempts and the last q1 attempt", n)
	}

	h.nodeA.DropPending(c[3])
	if n := h.nodeA.PendingAttempts(); n != 2 {
		t.Fatalf("DropPending(%d) left %d attempts, want 2", c[3], n)
	}
	if got := reply(q2); got != c[4] {
		t.Fatalf("q2 REPLY answered cycle %d, want %d: the attempt before the cutoff must be gone", got, c[4])
	}
	if got := reply(q1); got != c[3] {
		t.Fatalf("q1 REPLY answered cycle %d, want %d: the cutoff's own cycle must stay", got, c[3])
	}
	if n := h.nodeA.PendingAttempts(); n != 0 {
		t.Fatalf("%d attempts still pending", n)
	}
}

// A side has at most one GEN waiting per cycle: a second GEN of the same
// cycle replaces the first, and the first one's hold event, which fires
// while the second still waits, leaves the second alone.
func TestHeldGENReplacedBySameCycle(t *testing.T) {
	h := newHarness(t, 0) // hold time 100 µs
	qid := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
	deliver := func(at sim.Duration, side nv.PairSide) {
		frame := wire.GENFrame{QueueID: qid, Timestamp: 7}.Encode()
		p := newGENPayload(frame, 0.3, side, 7)
		sim.Schedule(h.s, at, func() { h.link.receiveGEN(p) })
	}
	deliver(0, nv.SideA)
	deliver(50*sim.Microsecond, nv.SideA)
	deliver(120*sim.Microsecond, nv.SideB)
	_ = h.s.RunFor(2 * sim.Millisecond)
	matched, _, timeMis, queueMis, noOther := h.link.Stats()
	if matched != 1 || timeMis+queueMis+noOther != 0 {
		t.Fatalf("matched=%d time=%d queue=%d noOther=%d, want one match and no error", matched, timeMis, queueMis, noOther)
	}
	if len(h.genA.results) != 1 || len(h.genB.results) != 1 {
		t.Fatalf("got %d and %d results, want one each", len(h.genA.results), len(h.genB.results))
	}
}

func TestMidpointIgnoresGarbage(t *testing.T) {
	h := newHarness(t, 0)
	h.link.receiveGEN(newGENPayload([]byte{0xFF, 0x00}, 0.1, nv.SideA, 1))
	h.nodeA.receiveReply(newREPLYPayload([]byte{0x01}, nv.SideA))
	// A truncated frame of the right type, and a well-formed GEN from a side
	// the station does not have.
	h.nodeA.receiveReply(newREPLYPayload([]byte{byte(wire.FrameREPLY)}, nv.SideA))
	h.link.receiveGEN(newGENPayload(wire.GENFrame{Timestamp: 1}.Encode(), 0.1, nv.PairSide(7), 1))
	if len(h.genA.results) != 0 {
		t.Fatalf("garbage REPLYs reached the link layer: %+v", h.genA.results)
	}
	matched, successes, _, _, _ := h.link.Stats()
	if matched != 0 || successes != 0 {
		t.Fatal("garbage input should be ignored")
	}
	if len(h.link.waiting[nv.SideA])+len(h.link.waiting[nv.SideB]) != 0 {
		t.Fatal("garbage GENs were held")
	}
}

// holdEvents is the harness engine's event count less the clock's ticks and
// the given numbers of GEN and REPLY delivery events: what is left are the
// station's hold events.
func (h *harness) holdEvents(genEvents, replyEvents uint64) uint64 {
	return h.s.Executed() - h.clock.Ticks() - genEvents - replyEvents
}

// A GEN that finds no peer waiting gets a hold event only when the peer's GEN
// of its cycle is not on its way to arrive before the hold expires; an expiry
// still reports the error exactly hold after the GEN arrived.
func TestHoldEventOnlyWhenPeerGENNotOnItsWay(t *testing.T) {
	const short, hold = 10 * sim.Nanosecond, 100 * sim.Microsecond
	sent := sim.Time(sim.DurationMicroseconds(10.12)) // the first cycle
	for _, tc := range []struct {
		name        string
		armA, armB  sim.Duration
		lostB       bool
		match       bool
		holds       uint64 // hold events fired
		genEvents   uint64
		replyEvents uint64
	}{
		// One event delivers both GENs, and one both REPLYs.
		{"equal arms", short, short, false, true, 0, 1, 1},
		{"peer due inside the hold", short, 60 * sim.Microsecond, false, true, 0, 2, 2},
		// B's GEN was scheduled before A's hold event, so at the tie it
		// arrives first and matches; the hold event finds nothing to do.
		{"peer due as the hold expires", short, short + hold, false, true, 1, 2, 2},
		{"peer due after the hold", short, short + hold + 1, false, false, 2, 2, 2},
		// B's GEN expired before A's arrived: A's partner is in the past.
		{"peer came and went", short + hold + 1, short, false, false, 2, 2, 2},
		{"peer GEN lost", short, short, true, false, 1, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarnessArms(t, 0, tc.armA, tc.armB, hold)
			if tc.lostB {
				h.link.SetLoss(FibreBH, 1)
			}
			qid := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
			h.genA.decisions = []PollDecision{attemptDecision(qid, 0.3)}
			h.genB.decisions = []PollDecision{attemptDecision(qid, 0.3)}
			stop := h.start()
			_ = h.s.RunFor(sim.Millisecond)
			stop()

			matched, _, timeMis, _, noOther := h.link.Stats()
			if got := matched == 1; got != tc.match || timeMis != 0 {
				t.Fatalf("matched=%d timeMismatch=%d noOther=%d", matched, timeMis, noOther)
			}
			wantB := 1
			if tc.lostB {
				wantB = 0
			}
			if len(h.genA.results) != 1 || len(h.genB.results) != wantB {
				t.Fatalf("A got %d results and B %d, want 1 and %d", len(h.genA.results), len(h.genB.results), wantB)
			}
			// A matched pair's REPLYs leave when the later GEN arrives; an
			// unmatched GEN's error REPLY leaves hold after it arrived.
			last := max(tc.armA, tc.armB)
			want := [2]sim.Time{sent.Add(last + tc.armA), sent.Add(last + tc.armB)}
			if !tc.match {
				want = [2]sim.Time{sent.Add(2*tc.armA + hold), sent.Add(2*tc.armB + hold)}
				if h.genA.results[0].Outcome != wire.ErrNoMessageOther {
					t.Fatalf("A got %v, want NO_MESSAGE_OTHER", h.genA.results[0].Outcome)
				}
			}
			if h.genA.resultAt[0] != want[0] {
				t.Errorf("A's result came at %v, want %v", h.genA.resultAt[0], want[0])
			}
			if wantB == 1 && h.genB.resultAt[0] != want[1] {
				t.Errorf("B's result came at %v, want %v", h.genB.resultAt[0], want[1])
			}
			if got := h.holdEvents(tc.genEvents, tc.replyEvents); got != tc.holds {
				t.Errorf("%d hold events, want %d", got, tc.holds)
			}
		})
	}
}

// Over long, unequal arms each side has several GENs in flight; the two GENs
// of a cycle still learn of each other when the second is sent, so every
// attempt matches without a hold event.
func TestPartnerGENsPairWithSeveralInFlight(t *testing.T) {
	armA, armB := sim.DurationMicroseconds(48.4), sim.DurationMicroseconds(72.6)
	h := newHarnessArms(t, 0, armA, armB, 2*(armA+armB)+200*sim.Microsecond)
	qid := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
	const attempts = 300
	for i := 0; i < attempts; i++ {
		h.genA.decisions = append(h.genA.decisions, attemptDecision(qid, 0.1))
		h.genB.decisions = append(h.genB.decisions, attemptDecision(qid, 0.1))
	}
	stop := h.start()
	_ = h.s.RunFor(sim.Duration(attempts+30) * sim.DurationMicroseconds(10.12))
	stop()
	if matched, _, _, _, _ := h.link.Stats(); matched != attempts {
		t.Fatalf("%d of %d attempts matched", matched, attempts)
	}
	if len(h.genA.results) != attempts || len(h.genB.results) != attempts {
		t.Fatalf("%d and %d results, want %d each", len(h.genA.results), len(h.genB.results), attempts)
	}
	if got := h.holdEvents(2*attempts, 2*attempts); got != 0 {
		t.Errorf("%d hold events, want none", got)
	}
}

// A held GEN without a hold event that a same-cycle GEN replaces goes back to
// the free list at once; the replacement matches the peer and its own hold
// event returns it later. No payload reaches the free list twice.
func TestUntimedHeldGENReplaced(t *testing.T) {
	armA, armB, hold := 10*sim.Nanosecond, 50*sim.Microsecond, 100*sim.Microsecond
	h := newHarnessArms(t, 0, armA, armB, hold)
	qid := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
	h.genA.decisions = []PollDecision{attemptDecision(qid, 0.3)}
	h.genB.decisions = []PollDecision{attemptDecision(qid, 0.3)}
	sent := sim.Time(sim.DurationMicroseconds(10.12))
	frame := wire.GENFrame{QueueID: qid, Timestamp: 1}.Encode()
	sim.ScheduleAt(h.s, sent.Add(20*sim.Microsecond), func() {
		h.link.receiveGEN(newGENPayload(frame, 0.3, nv.SideA, 1))
	})
	stop := h.start()
	_ = h.s.RunFor(sim.Millisecond)
	stop()
	matched, _, timeMis, queueMis, noOther := h.link.Stats()
	if matched != 1 || timeMis+queueMis+noOther != 0 {
		t.Fatalf("matched=%d time=%d queue=%d noOther=%d, want one match and no error", matched, timeMis, queueMis, noOther)
	}
	seen := map[*genPayload]bool{}
	for _, p := range h.link.gens {
		if seen[p] {
			t.Fatal("a GEN payload is on the free list twice")
		}
		seen[p] = true
	}
	if len(seen) != 3 {
		t.Fatalf("%d GEN payloads on the free list, want the two nodes' and the hand-built one", len(seen))
	}
}
