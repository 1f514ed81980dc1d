package netsim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/egp"
	"repro/internal/mhp"
	"repro/internal/nv"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The four frames of one attempt, in the order the link sends them: the
// frames of mhp.FibreAH, FibreBH, FibreHA and FibreHB.
var lostFrameNames = [4]string{"GEN A", "GEN B", "REPLY A", "REPLY B"}

// setFrameLoss sets the loss probability of the fibre carrying the given
// frame of every attempt (an index into lostFrameNames).
func setFrameLoss(l *Link, frame int, p float64) { l.Mid.SetLoss(mhp.Fibre(frame), p) }

// lostFrameRun is what one run of TestOneLostFrame observes.
type lostFrameRun struct {
	// log is both EGPs' and the midpoint's counters, then every non-sim
	// trace record in order.
	log []string
	// heralds holds the cycle and outcome of every attempt the midpoint
	// heralded.
	heralds [][2]uint64
	// pending is each side's pending attempts once the replies of the
	// attempt under test are due; drained is the same after the 4,096-cycle
	// drop, registry the registry's size after a sweep down to the newest
	// pair, commFree whether each side's communication qubit is free.
	pending, drained [2]int
	registry         int
	commFree         [2]bool
	expiresSent      int
}

// runLostFrame serves one create-and-keep request for two pairs, timing out
// after maxTime, on a 2-node link of the given platform, and drops the given
// frame (−1: none) of the attempt of the given cycle: the frame's fibre loses
// everything from just before the frame is sent until just after. The run
// ends 100 ms after the timeout, past the maintenance pass that drops
// attempts 4,096 cycles old.
func runLostFrame(t *testing.T, scenario nv.ScenarioID, cycle uint64, frame int, maxTime sim.Duration) lostFrameRun {
	t.Helper()
	cfg := DefaultConfig(Chain(2), scenario)
	cfg.Seed = 1
	tracer := obs.NewTracer(1, 1<<20)
	cfg.Trace = tracer
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := nw.Links[0]
	period := nw.Platform.CycleTime[nv.RequestMeasure]
	sent := sim.Time(sim.Duration(cycle) * period) // the cycle's GENs leave with its tick
	herald := sent.Add(max(nw.Platform.CommDelayAH, nw.Platform.CommDelayBH))
	if frame >= 0 {
		at := sent
		if frame >= 2 {
			at = herald // the REPLYs leave when the later GEN arrives
		}
		sim.ScheduleAt(l.Eng, at.Add(-sim.Nanosecond), func() { setFrameLoss(l, frame, 1) })
		sim.ScheduleAt(l.Eng, at.Add(sim.Nanosecond), func() { setFrameLoss(l, frame, 0) })
	}
	if _, code := nw.Submit(l, roleA, egp.CreateRequest{NumPairs: 2, Keep: true, MinFidelity: 0.51, MaxTime: maxTime, Priority: egp.PriorityCK}); code != wire.ErrNone {
		t.Fatalf("submit: %v", code)
	}
	var r lostFrameRun
	if cycle > 0 {
		// Every reply or hold of the attempt is settled a millisecond after
		// its GENs arrive.
		nw.Run(sim.Duration(herald.Add(sim.Millisecond)))
		r.pending = [2]int{l.MHPA.PendingAttempts(), l.MHPB.PendingAttempts()}
	}
	nw.Run(maxTime + 100*sim.Millisecond - sim.Duration(nw.Sim.Now()))
	r.drained = [2]int{l.MHPA.PendingAttempts(), l.MHPB.PendingAttempts()}
	l.Registry.Sweep(0)
	r.registry = l.Registry.Len()
	r.commFree = [2]bool{l.DeviceA.CommFree(), l.DeviceB.CommFree()}
	r.log = append(r.log, fmt.Sprint(l.EGPA.Stats()), fmt.Sprint(l.EGPB.Stats()), fmt.Sprint(l.Mid.Stats()))
	if d := tracer.Dropped(); d != 0 {
		t.Fatalf("tracer overwrote %d records", d)
	}
	maxArm := max(nw.Platform.CommDelayAH, nw.Platform.CommDelayBH)
	for _, rec := range tracer.Records() {
		if rec.Layer == obs.LayerSim {
			continue
		}
		r.log = append(r.log, fmt.Sprintf("%d %v %v %d %d", rec.At, rec.Layer, rec.Kind, rec.A, rec.B))
		switch rec.Kind {
		case obs.KindHerald:
			r.heralds = append(r.heralds, [2]uint64{uint64(rec.At.Add(-maxArm)) / uint64(period), uint64(rec.A)})
		case obs.KindEGPExpire:
			if rec.B == 0 {
				r.expiresSent++
			}
		}
	}
	return r
}

// digest hashes a run's trace log.
func (r lostFrameRun) digest() uint64 {
	h := fnv.New64a()
	for _, line := range r.log {
		fmt.Fprintln(h, line)
	}
	return h.Sum64()
}

// lostFramePin is what TestOneLostFrame recorded for one run.
type lostFramePin struct {
	digest  uint64
	pending [2]int
}

// TestOneLostFrame drops exactly one of the four frames of one attempt, on
// Lab's equal arms and QL2020's unequal ones, of the first attempt (a
// failure) and of the first heralded success. Each run's counters and whole
// trace (attempts with their cycles, REPLYs with outcome and sequence number,
// heralds and drops, the EGPs' OKs, errors and EXPIREs) are pinned by digest,
// and each side's pending attempts a millisecond after the attempt's GENs
// arrive, as recorded before the link's MHP became one object. On top, a
// lost success REPLY must be followed by an EXPIRE, and every run must end
// with nothing pending after the 4,096-cycle drop, only the newest pair left
// in the registry after a sweep and both communication qubits free.
func TestOneLostFrame(t *testing.T) {
	for _, pc := range []struct {
		name     string
		scenario nv.ScenarioID
		maxTime  sim.Duration
		ref      uint64 // the digest of the run without a drop
		pins     map[string]lostFramePin
	}{
		{"Lab", nv.ScenarioLab, 150 * sim.Millisecond, 0xed79ca69744e60da, map[string]lostFramePin{
			"failure/GEN A":   {0x38b6236bdeca4680, [2]int{1, 1}},
			"failure/GEN B":   {0x38b6236bdeca4680, [2]int{1, 1}},
			"failure/REPLY A": {0xde960774a31aa220, [2]int{1, 1}},
			"failure/REPLY B": {0xde960774a31aa220, [2]int{1, 1}},
			"success/GEN A":   {0xa4db8220f2c23f34, [2]int{1, 1}},
			"success/GEN B":   {0xa4db8220f2c23f34, [2]int{1, 1}},
			"success/REPLY A": {0x7a8def79855996ea, [2]int{1, 0}},
			"success/REPLY B": {0x9aeaea08332a67f8, [2]int{0, 1}},
		}},
		{"QL2020", nv.ScenarioQL2020, 1600 * sim.Millisecond, 0x6b163024f2e12c55, map[string]lostFramePin{
			"failure/GEN A":   {0x6a72de59c7332774, [2]int{1, 1}},
			"failure/GEN B":   {0x2d17e0f9effc17f9, [2]int{1, 1}},
			"failure/REPLY A": {0x7aa7fc3cd88d7f3c, [2]int{1, 1}},
			"failure/REPLY B": {0x54a01aa18b7c1872, [2]int{1, 1}},
			"success/GEN A":   {0x9de3451851294d6c, [2]int{1, 1}},
			"success/GEN B":   {0x7792ad6ad2953ec5, [2]int{1, 1}},
			"success/REPLY A": {0x74032e71c8d78f19, [2]int{1, 0}},
			"success/REPLY B": {0xe83daec6e4e7ce79, [2]int{0, 1}},
		}},
	} {
		ref := runLostFrame(t, pc.scenario, 0, -1, pc.maxTime)
		if got := ref.digest(); got != pc.ref {
			t.Errorf("%s without a drop: digest %#x, want %#x", pc.name, got, pc.ref)
		}
		var failed, success uint64
		for _, h := range ref.heralds {
			if h[1] == 0 && failed == 0 {
				failed = h[0]
			}
			if h[1] != 0 && success == 0 {
				success = h[0]
			}
		}
		for _, ac := range []struct {
			name  string
			cycle uint64
		}{{"failure", failed}, {"success", success}} {
			for frame, fname := range lostFrameNames {
				name := fmt.Sprintf("%s/%s/%s", pc.name, ac.name, fname)
				got := runLostFrame(t, pc.scenario, ac.cycle, frame, pc.maxTime)
				want := pc.pins[ac.name+"/"+fname]
				if got.digest() != want.digest || got.pending != want.pending {
					t.Errorf("%s (cycle %d): digest %#x, pending %v; want %#x, %v", name, ac.cycle, got.digest(), got.pending, want.digest, want.pending)
				}
				if lostReply := ac.name == "success" && frame >= 2; lostReply != (got.expiresSent > 0) {
					t.Errorf("%s: %d EXPIREs sent", name, got.expiresSent)
				}
				if got.drained != [2]int{} || got.registry != 1 || got.commFree != [2]bool{true, true} {
					t.Errorf("%s: at the end %v attempts pending, %d pairs registered after a sweep, communication qubits free %v",
						name, got.drained, got.registry, got.commFree)
				}
			}
		}
	}
}
