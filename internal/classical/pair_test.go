package classical

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// sendPairRun sends 200 frame pairs over two lossy channels, through SendPair
// or through two Sends, and logs every delivery together with a zero-delay
// event each delivery schedules, so the log also shows where work scheduled
// by a delivery runs relative to the other frame.
func sendPairRun(t *testing.T, delayB sim.Duration, pair bool) (log []string, events uint64, stats [2][3]uint64) {
	t.Helper()
	s := sim.New(5)
	record := func(name string) func(Message) {
		return func(m Message) {
			log = append(log, fmt.Sprintf("%s:%v@%v sent %v", name, m.Payload, s.Now(), m.SentAt))
			sim.Schedule(s, 0, func() { log = append(log, fmt.Sprintf("after %s:%v", name, m.Payload)) })
		}
	}
	a := NewChannel("a", s, 10*sim.Microsecond, 0.3, record("a"))
	b := NewChannel("b", s, delayB, 0.3, record("b"))
	for i := 0; i < 200; i++ {
		sim.Schedule(s, sim.Duration(i)*sim.Microsecond/2, func() {
			if !pair {
				a.Send(i)
				b.Send(-i)
				return
			}
			_, _, droppedA0 := a.Stats()
			_, _, droppedB0 := b.Stats()
			da, db := SendPair(a, b, i, -i)
			_, _, droppedA := a.Stats()
			_, _, droppedB := b.Stats()
			if da != (droppedA != droppedA0) || db != (droppedB != droppedB0) {
				t.Errorf("pair %d: SendPair reported drops %v,%v, the channels counted %d,%d", i, da, db, droppedA-droppedA0, droppedB-droppedB0)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	sa, da, xa := a.Stats()
	sb, db, xb := b.Stats()
	return log, s.Executed(), [2][3]uint64{{sa, da, xa}, {sb, db, xb}}
}

// SendPair is two Sends but for the event count: the same loss draws, the
// same deliveries at the same times in the same order, the same counters.
// Over equal delays one event delivers each pair whose frames both survive;
// over unequal ones each frame keeps its own event.
func TestSendPairMatchesTwoSends(t *testing.T) {
	for _, tc := range []struct {
		name   string
		delayB sim.Duration
	}{
		{"equal delays", 10 * sim.Microsecond},
		{"unequal delays", 15 * sim.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantLog, wantEvents, wantStats := sendPairRun(t, tc.delayB, false)
			log, events, stats := sendPairRun(t, tc.delayB, true)
			if stats != wantStats {
				t.Errorf("channel stats %v, two Sends give %v", stats, wantStats)
			}
			if len(log) != len(wantLog) {
				t.Fatalf("%d log lines, two Sends give %d", len(log), len(wantLog))
			}
			for i := range log {
				if log[i] != wantLog[i] {
					t.Fatalf("log line %d is %q, two Sends give %q", i, log[i], wantLog[i])
				}
			}
			// Count the pairs whose frames both arrived.
			delivered := map[string]bool{}
			for _, l := range log {
				frame, _, _ := strings.Cut(l, "@")
				delivered[frame] = true
			}
			both := uint64(0)
			for i := 0; i < 200; i++ {
				if delivered[fmt.Sprintf("a:%d", i)] && delivered[fmt.Sprintf("b:%d", -i)] {
					both++
				}
			}
			if both == 0 || both == 200 {
				t.Fatalf("%d of 200 pairs fully delivered; the loss should leave some", both)
			}
			saved := uint64(0)
			if tc.delayB == 10*sim.Microsecond {
				saved = both
			}
			if wantEvents-events != saved {
				t.Errorf("SendPair ran %d events, two Sends %d: want %d fewer", events, wantEvents, saved)
			}
		})
	}
}

// A pair's event argument is recycled, so steady-state SendPair allocates
// nothing.
func TestSendPairAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	a := NewChannel("a", s, 10*sim.Nanosecond, 0, func(Message) {})
	b := NewChannel("b", s, 10*sim.Nanosecond, 0, func(Message) {})
	first, second := new(int), new(int)
	round := func() {
		SendPair(a, b, first, second)
		_ = s.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("%v allocations per pair, want 0", allocs)
	}
	if _, delivered, _ := b.Stats(); delivered != 102 {
		t.Fatalf("b delivered %d frames, want 102", delivered)
	}
}

// A frame rides another channel's pending delivery only when its own event
// would fire right after it: same engine, same arrival time, and nothing
// scheduled in between. Otherwise it keeps its own event, and every frame
// still arrives in the order its own event would have given it.
func TestPostAfterRidesOnlyAnAdjacentDelivery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		delayB sim.Duration
		// between, if set, schedules an event at the arrival time between
		// the two sends.
		between bool
		rides   bool
	}{
		{"adjacent", 10, false, true},
		{"later arrival", 11, false, false},
		{"event in between", 10, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			var log []string
			record := func(m Message) { log = append(log, fmt.Sprint(m.Payload)) }
			a := NewChannel("a", s, 10, 0, record)
			b := NewChannel("b", s, tc.delayB, 0, record)
			host, ok := a.Post("a")
			if !ok {
				t.Fatal("a loss-free channel dropped a frame")
			}
			if tc.between {
				sim.Schedule(s, 10, func() { log = append(log, "between") })
			}
			d, ok := b.PostAfter(host, "b")
			if !ok {
				t.Fatal("a loss-free channel dropped a frame")
			}
			if rode := b.Rode() == 1; rode != tc.rides || (d == Delivery{}) != tc.rides {
				t.Fatalf("b rode %d times and returned delivery %+v, want riding %v", b.Rode(), d, tc.rides)
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			want := "[a b]"
			if tc.between {
				want = "[a between b]"
			}
			if got := fmt.Sprint(log); got != want {
				t.Fatalf("delivered %s, want %s", got, want)
			}
			if _, delivered, _ := b.Stats(); delivered != 1 {
				t.Fatalf("b delivered %d frames, want 1", delivered)
			}
			wantEvents := uint64(2)
			if tc.between {
				wantEvents = 3
			} else if tc.rides {
				wantEvents = 1
			}
			if events := s.Executed(); events != wantEvents {
				t.Fatalf("%d events, want %d", events, wantEvents)
			}
		})
	}
}
