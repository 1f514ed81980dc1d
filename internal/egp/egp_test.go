package egp

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/classical"
	"repro/internal/mhp"
	"repro/internal/nv"
	"repro/internal/photonics"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
)

// egpFixture wires a single EGP against stub channels so unit tests can
// exercise the protocol logic without the full network.
type egpFixture struct {
	s          *sim.Simulator
	egp        *EGP
	device     *nv.Device
	sentToPeer [][]byte
	oks        []OKEvent
	errs       []ErrorEvent
}

func newEGPFixture(t *testing.T, keepMultiplex bool) *egpFixture {
	t.Helper()
	return newEGPFixtureWith(t, keepMultiplex, NewFCFS())
}

// newEGPFixtureWith is newEGPFixture with the given scheduler.
func newEGPFixtureWith(t *testing.T, keepMultiplex bool, sched Scheduler) *egpFixture {
	t.Helper()
	f := &egpFixture{s: sim.New(5)}
	platform := nv.LabPlatform()
	f.device = nv.NewDevice("A", platform.Gates, platform.CarbonCoupling, platform.MemoryQubits)
	sampler := photonics.NewLinkSampler(platform.Optics)
	// The peer channel records sent frames without delivering them anywhere.
	toPeer := classical.NewChannel("a->b", f.s, 10*sim.Microsecond, 0, func(classical.Message) {})
	f.egp = New(Config{
		NodeName:             "A",
		NodeID:               1,
		PeerID:               2,
		IsMaster:             true,
		Sim:                  f.s,
		Platform:             platform,
		Device:               f.device,
		Sampler:              sampler,
		Side:                 nv.SideA,
		Scheduler:            sched,
		ToPeer:               toPeer,
		OnOK:                 func(ev OKEvent) { f.oks = append(f.oks, ev) },
		OnError:              func(ev ErrorEvent) { f.errs = append(f.errs, ev) },
		EmissionMultiplexing: keepMultiplex,
		AutoRelease:          true,
	})
	return f
}

// confirmAll marks every queue item as confirmed, bypassing the DQP
// handshake (which has its own tests).
func (f *egpFixture) confirmAll() {
	for _, it := range f.egp.Queue().AllItems() {
		it.confirmed = true
	}
}

// newPair is a pair heralded as bell now, as a success REPLY carries it.
func (f *egpFixture) newPair(bell quantum.BellState) *nv.EntangledPair {
	return nv.NewEntangledPair(quantum.NewBellState(bell), bell, f.s.Now())
}

func TestCreateAcceptsAndQueues(t *testing.T) {
	f := newEGPFixture(t, true)
	id, code := f.egp.Create(CreateRequest{NumPairs: 2, Keep: true, MinFidelity: 0.6, Priority: PriorityCK})
	if code != wire.ErrNone {
		t.Fatalf("expected acceptance, got %v", code)
	}
	if f.egp.Queue().TotalLen() != 1 {
		t.Fatal("request should be queued")
	}
	item := f.egp.Queue().AllItems()[0]
	if item.CreateID != id || item.NumPairs != 2 || !item.Keep {
		t.Fatalf("queued item fields wrong: %+v", item)
	}
	if item.Alpha <= 0 || item.Alpha > 0.5 {
		t.Fatalf("generation parameter alpha not derived: %v", item.Alpha)
	}
	if item.ScheduleCycle == 0 {
		t.Fatal("min_time schedule cycle should be set")
	}
}

func TestCreateUnsupportedFidelity(t *testing.T) {
	f := newEGPFixture(t, true)
	_, code := f.egp.Create(CreateRequest{NumPairs: 1, Keep: true, MinFidelity: 0.999, Priority: PriorityCK})
	if code != wire.ErrUnsupported {
		t.Fatalf("expected UNSUPP, got %v", code)
	}
	if len(f.errs) != 1 || f.errs[0].Code != wire.ErrUnsupported {
		t.Fatal("UNSUPP error event should be emitted")
	}
	if f.egp.Queue().TotalLen() != 0 {
		t.Fatal("unsupported request must not be queued")
	}
}

func TestCreateImpossibleDeadline(t *testing.T) {
	f := newEGPFixture(t, true)
	_, code := f.egp.Create(CreateRequest{NumPairs: 50, Keep: true, MinFidelity: 0.6, MaxTime: sim.Microsecond, Priority: PriorityCK})
	if code != wire.ErrUnsupported {
		t.Fatalf("expected UNSUPP for impossible deadline, got %v", code)
	}
}

func TestCreateAtomicTooLarge(t *testing.T) {
	f := newEGPFixture(t, true)
	_, code := f.egp.Create(CreateRequest{NumPairs: 5, Keep: true, Atomic: true, MinFidelity: 0.6, Priority: PriorityCK})
	if code != wire.ErrMemExceeded {
		t.Fatalf("expected MEMEXCEEDED, got %v", code)
	}
}

func TestPollTriggersAfterMinTime(t *testing.T) {
	f := newEGPFixture(t, true)
	f.egp.Create(CreateRequest{NumPairs: 1, Keep: true, MinFidelity: 0.6, Priority: PriorityCK})
	f.confirmAll()
	item := f.egp.Queue().AllItems()[0]
	// Before min_time: no attempt.
	if d := f.egp.PollTrigger(item.ScheduleCycle - 1); d.Attempt {
		t.Fatal("attempt before min_time")
	}
	// After min_time (and outside the periodic carbon re-initialisation
	// window, which blocks K attempts): attempt with the request's
	// parameters.
	d := f.egp.PollTrigger(item.ScheduleCycle + 50)
	if !d.Attempt || !d.Keep {
		t.Fatalf("expected a K attempt, got %+v", d)
	}
	if d.QueueID != item.ID {
		t.Fatal("attempt should reference the queue item")
	}
	if math.Abs(d.Alpha-item.Alpha) > 1e-12 {
		t.Fatal("attempt should use the item's alpha")
	}
	if d.StorageQubit == nv.CommQubitID {
		t.Fatal("with a free memory qubit the pair should be scheduled for storage")
	}
	// While the K attempt is outstanding, no further attempts are triggered.
	if d2 := f.egp.PollTrigger(item.ScheduleCycle + 51); d2.Attempt {
		t.Fatal("no second K attempt while one is outstanding")
	}
}

func TestKeepSuccessDeliversOK(t *testing.T) {
	f := newEGPFixture(t, true)
	f.egp.Create(CreateRequest{NumPairs: 1, Keep: true, MinFidelity: 0.6, Priority: PriorityCK})
	f.confirmAll()
	item := f.egp.Queue().AllItems()[0]
	d := f.egp.PollTrigger(item.ScheduleCycle + 50)
	if !d.Attempt {
		t.Fatal("expected attempt")
	}
	pair := f.newPair(quantum.PsiPlus)
	f.egp.HandleResult(mhp.Result{
		Outcome: wire.OutcomeStateOne, MHPSeq: 1, QueueID: item.ID,
		Keep: true, StorageQubit: d.StorageQubit, Alpha: d.Alpha, Pair: pair,
	})
	if len(f.oks) != 1 {
		t.Fatalf("expected 1 OK, got %d", len(f.oks))
	}
	ok := f.oks[0]
	if !ok.Keep || !ok.RequestDone || ok.PairsRemaining != 0 {
		t.Fatalf("OK fields wrong: %+v", ok)
	}
	if ok.Fidelity < 0.9 {
		t.Fatalf("a perfect registered pair should deliver high fidelity, got %v", ok.Fidelity)
	}
	if f.egp.Queue().TotalLen() != 0 {
		t.Fatal("completed request should leave the queue")
	}
	if f.egp.ExpectedSeq() != 2 {
		t.Fatalf("expected sequence should advance to 2, got %d", f.egp.ExpectedSeq())
	}
}

func TestPsiMinusCorrectionAtOrigin(t *testing.T) {
	f := newEGPFixture(t, true)
	f.egp.Create(CreateRequest{NumPairs: 1, Keep: true, MinFidelity: 0.6, Priority: PriorityCK})
	f.confirmAll()
	item := f.egp.Queue().AllItems()[0]
	d := f.egp.PollTrigger(item.ScheduleCycle + 50)
	pair := f.newPair(quantum.PsiMinus)
	f.egp.HandleResult(mhp.Result{
		Outcome: wire.OutcomeStateTwo, MHPSeq: 1, QueueID: item.ID,
		Keep: true, StorageQubit: d.StorageQubit, Alpha: d.Alpha, Pair: pair,
	})
	if pair.HeraldedAs != quantum.PsiPlus {
		t.Fatal("origin should convert the heralded Ψ− into Ψ+")
	}
	if f := pair.State.BellFidelity(quantum.PsiPlus); f < 0.9 {
		t.Fatalf("corrected pair fidelity too low: %v", f)
	}
}

func TestMeasureSuccessDeliversOutcome(t *testing.T) {
	f := newEGPFixture(t, true)
	f.egp.Create(CreateRequest{NumPairs: 2, Keep: false, MinFidelity: 0.6, Priority: PriorityMD})
	f.confirmAll()
	item := f.egp.Queue().AllItems()[0]
	d := f.egp.PollTrigger(item.ScheduleCycle + 1)
	if !d.Attempt || d.Keep {
		t.Fatalf("expected an M attempt, got %+v", d)
	}
	pair := f.newPair(quantum.PsiPlus)
	f.egp.HandleResult(mhp.Result{
		Outcome: wire.OutcomeStateOne, MHPSeq: 1, QueueID: item.ID,
		Keep: false, MeasureBasis: d.MeasureBasis, Alpha: d.Alpha, Pair: pair,
	})
	if len(f.oks) != 1 {
		t.Fatalf("expected 1 OK, got %d", len(f.oks))
	}
	ok := f.oks[0]
	if ok.Keep || ok.RequestDone || ok.PairsRemaining != 1 {
		t.Fatalf("OK fields wrong for the first of two pairs: %+v", ok)
	}
	if ok.MeasureOutcome != 0 && ok.MeasureOutcome != 1 {
		t.Fatal("invalid measurement outcome")
	}
	// The device must be free again (the measurement is destructive).
	if !f.device.CommFree() {
		t.Fatal("communication qubit should be released after measurement")
	}
}

func TestEmissionMultiplexingAllowsOverlappingAttempts(t *testing.T) {
	f := newEGPFixture(t, true)
	f.egp.Create(CreateRequest{NumPairs: 5, Keep: false, MinFidelity: 0.6, Priority: PriorityMD})
	f.confirmAll()
	item := f.egp.Queue().AllItems()[0]
	attempts := 0
	for c := item.ScheduleCycle + 1; c < item.ScheduleCycle+10; c++ {
		if f.egp.PollTrigger(c).Attempt {
			attempts++
		}
	}
	if attempts < 5 {
		t.Fatalf("multiplexing should allow many outstanding M attempts, got %d", attempts)
	}

	// Without multiplexing only one attempt may be outstanding.
	f2 := newEGPFixture(t, false)
	f2.egp.Create(CreateRequest{NumPairs: 5, Keep: false, MinFidelity: 0.6, Priority: PriorityMD})
	f2.confirmAll()
	item2 := f2.egp.Queue().AllItems()[0]
	attempts2 := 0
	for c := item2.ScheduleCycle + 1; c < item2.ScheduleCycle+10; c++ {
		if f2.egp.PollTrigger(c).Attempt {
			attempts2++
		}
	}
	if attempts2 != 1 {
		t.Fatalf("without multiplexing exactly one attempt should be outstanding, got %d", attempts2)
	}
}

func TestSequenceGapTriggersExpire(t *testing.T) {
	f := newEGPFixture(t, true)
	f.egp.Create(CreateRequest{NumPairs: 3, Keep: false, MinFidelity: 0.6, Priority: PriorityMD})
	f.confirmAll()
	item := f.egp.Queue().AllItems()[0]
	d := f.egp.PollTrigger(item.ScheduleCycle + 1)
	// The midpoint's sequence number jumps to 3: replies 1 and 2 were lost.
	pair := f.newPair(quantum.PsiPlus)
	f.egp.HandleResult(mhp.Result{
		Outcome: wire.OutcomeStateOne, MHPSeq: 3, QueueID: item.ID,
		Keep: false, MeasureBasis: d.MeasureBasis, Alpha: d.Alpha, Pair: pair,
	})
	_, _, _, expSent, _ := f.egp.Stats()
	if expSent != 1 {
		t.Fatalf("one EXPIRE should be sent, got %d", expSent)
	}
	if f.egp.ExpectedSeq() != 4 {
		t.Fatalf("expected sequence should resynchronise to 4, got %d", f.egp.ExpectedSeq())
	}
	// No OK is issued for the out-of-order reply (Protocol 2 step 3(iii)A).
	if len(f.oks) != 0 {
		t.Fatal("no OK should be issued when the gap is detected")
	}
}

func TestStaleSequenceIgnored(t *testing.T) {
	f := newEGPFixture(t, true)
	f.egp.Create(CreateRequest{NumPairs: 2, Keep: false, MinFidelity: 0.6, Priority: PriorityMD})
	f.confirmAll()
	item := f.egp.Queue().AllItems()[0]
	d := f.egp.PollTrigger(item.ScheduleCycle + 1)
	pair := f.newPair(quantum.PsiPlus)
	f.egp.HandleResult(mhp.Result{Outcome: wire.OutcomeStateOne, MHPSeq: 1, QueueID: item.ID, Keep: false, MeasureBasis: d.MeasureBasis, Alpha: d.Alpha, Pair: pair})
	oksBefore := len(f.oks)
	// A duplicate/stale reply with the same sequence number must be ignored.
	f.egp.HandleResult(mhp.Result{Outcome: wire.OutcomeStateOne, MHPSeq: 1, QueueID: item.ID, Keep: false, MeasureBasis: d.MeasureBasis, Alpha: d.Alpha, Pair: pair})
	if len(f.oks) != oksBefore {
		t.Fatal("stale reply should not produce another OK")
	}
}

func TestExpireMessageHandling(t *testing.T) {
	f := newEGPFixture(t, true)
	frame := wire.ExpireFrame{QueueID: wire.AbsoluteQueueID{QueueID: 2, QueueSeq: 0}, OriginNodeID: 2, ExpectedSeq: 10}
	f.egp.HandlePeerMessage(classical.Message{Payload: frame.Encode()})
	if f.egp.ExpectedSeq() != 10 {
		t.Fatalf("EXPIRE should resynchronise the expected sequence, got %d", f.egp.ExpectedSeq())
	}
	_, _, _, _, expRecv := f.egp.Stats()
	if expRecv != 1 {
		t.Fatal("expire received counter should increment")
	}
}

func TestTimeoutReaping(t *testing.T) {
	f := newEGPFixture(t, true)
	f.egp.Create(CreateRequest{NumPairs: 1, Keep: false, MinFidelity: 0.6, MaxTime: 500 * sim.Millisecond, Priority: PriorityMD})
	f.confirmAll()
	item := f.egp.Queue().AllItems()[0]
	if item.TimeoutCycle == 0 {
		t.Fatal("timeout cycle should be set")
	}
	// Poll far past the timeout cycle: the item is reaped and TIMEOUT issued.
	f.egp.PollTrigger(item.TimeoutCycle + 10)
	if f.egp.Queue().TotalLen() != 0 {
		t.Fatal("timed-out item should be removed")
	}
	found := false
	for _, e := range f.errs {
		if e.Code == wire.ErrTimeout {
			found = true
		}
	}
	if !found {
		t.Fatal("TIMEOUT error should be reported to the higher layer")
	}
}

// The poll skips the queue scan until the earliest timeout has passed; each
// request must still time out at the first cycle past its own TimeoutCycle,
// across lanes, after earlier ones left the queue, and with a request
// without a deadline queued beside them.
func TestTimeoutReapingAtEachDeadline(t *testing.T) {
	f := newEGPFixture(t, true)
	for i, req := range []CreateRequest{
		{MaxTime: 600 * sim.Millisecond, Priority: PriorityMD},
		{MaxTime: 400 * sim.Millisecond, Priority: PriorityCK},
		{Priority: PriorityNL},
		{MaxTime: 500 * sim.Millisecond, Priority: PriorityMD},
	} {
		req.NumPairs, req.MinFidelity = 1, 0.6
		if _, code := f.egp.Create(req); code != wire.ErrNone {
			t.Fatalf("request %d: %v", i, code)
		}
	}
	f.confirmAll()
	var timed []*QueueItem
	for _, it := range f.egp.Queue().AllItems() {
		if it.TimeoutCycle != 0 {
			timed = append(timed, it)
		}
	}
	if len(timed) != 3 {
		t.Fatalf("%d requests with a timeout, want 3", len(timed))
	}
	slices.SortFunc(timed, func(a, b *QueueItem) int { return cmp.Compare(a.TimeoutCycle, b.TimeoutCycle) })
	for i, it := range timed {
		f.egp.PollTrigger(it.TimeoutCycle)
		if f.egp.Queue().Find(it.ID) == nil {
			t.Fatalf("request %d reaped at its timeout cycle %d", i, it.TimeoutCycle)
		}
		f.egp.PollTrigger(it.TimeoutCycle + 1)
		if f.egp.Queue().Find(it.ID) != nil {
			t.Fatalf("request %d still queued one cycle past its timeout %d", i, it.TimeoutCycle)
		}
		if got, want := f.egp.Queue().TotalLen(), len(timed)-i; got != want {
			t.Fatalf("after request %d timed out %d items are queued, want %d", i, got, want)
		}
	}
	timeouts := 0
	for _, e := range f.errs {
		if e.Code == wire.ErrTimeout {
			timeouts++
		}
	}
	if timeouts != 3 {
		t.Fatalf("%d TIMEOUT errors, want 3", timeouts)
	}
}

func TestSharedBasisDeterministic(t *testing.T) {
	id := wire.AbsoluteQueueID{QueueID: 2, QueueSeq: 7}
	seen := map[quantum.BasisLabel]bool{}
	for cycle := uint64(0); cycle < 300; cycle++ {
		b1 := sharedBasisForCycle(id, cycle)
		b2 := sharedBasisForCycle(id, cycle)
		if b1 != b2 {
			t.Fatal("basis derivation must be deterministic")
		}
		seen[b1] = true
	}
	if len(seen) != 3 {
		t.Fatalf("all three bases should occur, got %v", seen)
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqAfter(5, 3) || seqAfter(3, 5) || seqAfter(4, 4) {
		t.Fatal("seqAfter wrong")
	}
	if !seqBefore(3, 5) || seqBefore(5, 3) {
		t.Fatal("seqBefore wrong")
	}
	// Wrap-around: 2 is "after" 65530.
	if !seqAfter(2, 65530) || !seqBefore(65530, 2) {
		t.Fatal("wrap-around comparison wrong")
	}
}

func TestFEUAlphaInversion(t *testing.T) {
	f := newEGPFixture(t, true)
	feu := f.egp.FEU()
	alpha, ok := feu.AlphaForFidelity(0.7)
	if !ok || alpha <= 0 || alpha > 0.5 {
		t.Fatalf("alpha inversion failed: %v %v", alpha, ok)
	}
	// Higher fidelity targets require smaller alpha.
	alphaHigh, ok := feu.AlphaForFidelity(0.8)
	if !ok || alphaHigh >= alpha {
		t.Fatalf("higher Fmin should give smaller alpha: %v vs %v", alphaHigh, alpha)
	}
	// Unreachable fidelity.
	if _, ok := feu.AlphaForFidelity(0.999); ok {
		t.Fatal("unreachable fidelity should be reported")
	}
	// The base estimate at the returned alpha meets the target.
	if feu.BaseEstimate(alpha) < 0.7-1e-6 {
		t.Fatal("base estimate at inverted alpha should meet the target")
	}
	// Completion estimate is finite and scales with the pair count.
	one := feu.EstimateCompletionSeconds(1, alpha, true)
	ten := feu.EstimateCompletionSeconds(10, alpha, true)
	if math.IsInf(one, 1) || ten < 9*one {
		t.Fatalf("completion estimates wrong: %v %v", one, ten)
	}
}

func TestFEUTestRounds(t *testing.T) {
	f := newEGPFixture(t, true)
	feu := f.egp.FEU()
	// Feed perfect Ψ+ correlations: anti-correlated Z, correlated X/Y.
	for i := 0; i < 60; i++ {
		feu.RecordTestOutcome(0, i%2, 1-i%2)
		feu.RecordTestOutcome(1, i%2, i%2)
		feu.RecordTestOutcome(2, i%2, i%2)
	}
	if g := feu.Goodness(0.3); g < 0.99 {
		t.Fatalf("perfect test rounds should give goodness ≈ 1, got %v", g)
	}
	z, x, y := feu.QBEREstimate()
	if z != 0 || x != 0 || y != 0 {
		t.Fatalf("QBER should be zero: %v %v %v", z, x, y)
	}
	if feu.TestRoundSamples() == 0 {
		t.Fatal("test round samples should be recorded")
	}
}

func TestQMMReservations(t *testing.T) {
	f := newEGPFixture(t, true)
	qmm := f.egp.QMM()
	if !qmm.CommAvailable() {
		t.Fatal("communication qubit should start free")
	}
	if !qmm.ReserveComm() {
		t.Fatal("first reservation should succeed")
	}
	if qmm.ReserveComm() {
		t.Fatal("double reservation should fail")
	}
	qmm.ReleaseComm()
	if !qmm.CommAvailable() {
		t.Fatal("release should free the qubit")
	}
	if qmm.StorageAvailable() != 1 {
		t.Fatal("one memory qubit should be free")
	}
	ever, now := qmm.CanSatisfyAtomic(2)
	if !ever || !now {
		t.Fatal("two pairs fit in comm + memory")
	}
	ever, _ = qmm.CanSatisfyAtomic(3)
	if ever {
		t.Fatal("three pairs cannot ever fit")
	}
	if qmm.LogicalToPhysical(1) != 1 {
		t.Fatal("logical mapping should be identity")
	}
	allocs, releases := qmm.Stats()
	if allocs != 1 || releases != 1 {
		t.Fatalf("allocation stats wrong: %d %d", allocs, releases)
	}
}
