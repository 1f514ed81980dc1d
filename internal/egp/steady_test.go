package egp

import (
	"fmt"
	"testing"

	"repro/internal/mhp"
	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestSteadyWithLostAttemptsMatchesPolls: with k measure-directly attempts
// outstanding whose REPLYs were lost, Steady's window must end exactly
// before the first poll at which reapLostAttempts releases one of them (the
// failure result of each poll's attempt releases the oldest outstanding one
// first, so a lost attempt triggered recently enough never is), the steady
// decision of each cycle (SteadyDecision) must be the poll's, and Absorb
// over the window must leave the outstanding attempts as the polls and
// their failure results do. The lost attempts are triggered in consecutive
// cycles, spacing cycles' time apart (0: all at once, so that a later poll
// may find an older one at the ring's head), the last age cycles before the
// run.
func TestSteadyWithLostAttemptsMatchesPolls(t *testing.T) {
	period := nv.LabPlatform().CycleTime[nv.RequestMeasure]
	const start, polls = 5000, 600
	for _, k := range []int{1, 2, 7, maxOutstandingM - 1} {
		for _, age := range []uint64{1, 60, 190, 400} {
			for _, spacing := range []uint64{0, 3} {
				t.Run(fmt.Sprintf("k%d-age%d-spacing%d", k, age, spacing), func(t *testing.T) {
					// state reports the M ring's live slots and the cycle.
					state := func(e *EGP) string {
						live := make([]sim.Time, e.outstandingM)
						for i := range live {
							live[i] = e.mAttemptTimes[(e.mHead+i)%len(e.mAttemptTimes)]
						}
						return fmt.Sprintf("outstanding %v cycle %d", live, e.cycle)
					}
					setup := func() *egpFixture {
						f := newEGPFixture(t, true)
						f.egp.Create(CreateRequest{NumPairs: 1000, MinFidelity: 0.6, Priority: PriorityMD})
						f.confirmAll()
						for i := range uint64(k) {
							back := age + spacing*(uint64(k)-1-i)
							_ = f.s.RunUntil(sim.Time(start-back) * sim.Time(period))
							c := start - age - (uint64(k) - 1 - i)
							if !f.egp.PollTrigger(c).Attempt {
								t.Fatalf("no attempt at cycle %d", c)
							}
						}
						return f
					}
					// ref polls until its first release, or polls times; want
					// is its state after each number of polls.
					ref, fold := setup(), setup()
					_ = fold.s.RunUntil(sim.Time(start) * sim.Time(period))
					var want []string
					reaped := false
					for j := range polls {
						want = append(want, state(ref.egp))
						c := uint64(start + j)
						_ = ref.s.RunUntil(sim.Time(c) * sim.Time(period))
						d := ref.egp.PollTrigger(c)
						if !d.Attempt {
							t.Fatalf("poll %d: no attempt", j)
						}
						if reaped = ref.egp.outstandingM <= k; reaped {
							break
						}
						if got := fold.egp.SteadyDecision(c, d); got != d {
							t.Fatalf("poll %d: steady decision %+v, poll %+v", j, got, d)
						}
						ref.egp.HandleResult(mhp.Result{Outcome: wire.OutcomeFailure, QueueID: d.QueueID, Alpha: d.Alpha, MeasureBasis: d.MeasureBasis, AttemptCycle: c})
					}
					d, steady := fold.egp.Steady(start)
					polled := uint64(len(want) - 1)
					if reaped && steady != polled || !reaped && steady < polled {
						t.Fatalf("steady for %d polls; attempt by attempt, %d polls, the last releasing a lost attempt: %v", steady, polled+1, reaped)
					}
					n := min(steady, polled)
					if n == 0 {
						return
					}
					fold.egp.Absorb(start, n, d)
					if got := state(fold.egp); got != want[n] {
						t.Fatalf("after %d polls absorbed:\n%s\nattempt by attempt:\n%s", n, got, want[n])
					}
				})
			}
		}
	}
}

// TestSteadyRefusesLostAttemptsItCannotKeep: lost M attempts keep a decision
// steady only under emission multiplexing and below maxOutstandingM, and a
// create-and-keep decision never.
func TestSteadyRefusesLostAttemptsItCannotKeep(t *testing.T) {
	for _, tc := range []struct {
		name      string
		multiplex bool
		keep      bool
		lost      int
	}{
		{"no-multiplexing", false, false, 1},
		{"ring-full", true, false, maxOutstandingM},
		{"keep", true, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newEGPFixture(t, tc.multiplex)
			priority := PriorityMD
			if tc.keep {
				priority = PriorityCK
			}
			f.egp.Create(CreateRequest{NumPairs: 10, Keep: tc.keep, MinFidelity: 0.6, Priority: priority})
			f.confirmAll()
			f.egp.outstandingM = tc.lost
			if _, steady := f.egp.Steady(1000); steady != 0 {
				t.Fatalf("steady for %d cycles with %d lost M attempts outstanding", steady, tc.lost)
			}
		})
	}
}
