package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// heapQueue is the reference event queue: a binary min-heap over (at, seq).
// Production Simulators run on the timing wheel; TestQueueDisciplineParity
// holds the wheel to this heap's pop order.
type heapQueue struct {
	h heapStore
}

// heapStore is the container/heap backing of heapQueue.
type heapStore []*event

func (q heapStore) Len() int { return len(q) }
func (q heapStore) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q heapStore) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *heapStore) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *heapStore) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

func (q *heapQueue) push(ev *event) { heap.Push(&q.h, ev) }

func (q *heapQueue) peek() *event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *heapQueue) len() int { return len(q.h) }

// compact rebuilds the heap without its cancelled events.
func (q *heapQueue) compact(recycle func(*event)) int {
	removed := 0
	live := q.h[:0]
	for _, ev := range q.h {
		if ev.canceled {
			recycle(ev)
			removed++
			continue
		}
		live = append(live, ev)
	}
	clear(q.h[len(live):])
	q.h = live
	heap.Init(&q.h)
	return removed
}

// queueParityResult is everything observable about one workload run: the
// execution trace plus the final counter state. Heap and wheel runs of the
// same workload must produce identical values for every field.
type queueParityResult struct {
	trace           []string
	now             Time
	executed        uint64
	pending         int
	compactions     uint64
	canceledPending int
}

// runQueueWorkload runs load on a fresh Simulator whose pending events wait
// in q.
func runQueueWorkload(t *testing.T, q eventQueue, load func(s *Simulator, emit func(string))) queueParityResult {
	t.Helper()
	s := New(1)
	s.q = q
	var trace []string
	load(s, func(tag string) {
		trace = append(trace, fmt.Sprintf("t=%d %s", s.Now(), tag))
	})
	return queueParityResult{
		trace:           trace,
		now:             s.Now(),
		executed:        s.Executed(),
		pending:         s.Pending(),
		compactions:     s.Compactions(),
		canceledPending: s.CanceledPending(),
	}
}

// TestQueueDisciplineParity runs adversarial scheduling patterns on the
// timing wheel and on the reference heap and requires byte-identical traces
// and counters: the wheel is an exact event queue, not an approximation. Each workload drives
// the run itself (often in RunUntil stages, so clock-advance behaviour at
// drained horizons is compared too).
func TestQueueDisciplineParity(t *testing.T) {
	cases := []struct {
		name string
		load func(s *Simulator, emit func(string))
	}{
		{
			// Many events sharing exact timestamps, scheduled out of order,
			// with same-instant events added from inside the batch.
			name: "same-timestamp bursts",
			load: func(s *Simulator, emit func(string)) {
				base := Time(Millisecond)
				for i := 99; i >= 0; i-- {
					i := i
					at := base + Time(i%4)*Time(Microsecond)
					ScheduleAt(s, at, func() { emit(fmt.Sprintf("burst%d", i)) })
				}
				ScheduleAt(s, base, func() {
					for j := 0; j < 10; j++ {
						j := j
						// Same instant as the running batch: must fire after
						// the whole batch, in scheduling order.
						ScheduleAt(s, base, func() { emit(fmt.Sprintf("nested%d", j)) })
					}
				})
				if err := s.Run(); err != nil {
					t.Fatalf("Run: %v", err)
				}
			},
		},
		{
			// Delays spanning every wheel level and the overflow list, with a
			// dense cluster at a far horizon to force multi-level cascades,
			// and re-seeding from inside far-future handlers.
			name: "far-future overflow cascades",
			load: func(s *Simulator, emit func(string)) {
				for k := 0; k < 63; k += 3 {
					k := k
					Schedule(s, Duration(1)<<k, func() { emit(fmt.Sprintf("exp%d", k)) })
				}
				far := Duration(1) << 41
				for i := 0; i < 50; i++ {
					i := i
					Schedule(s, far+Duration(i)*Microsecond, func() {
						emit(fmt.Sprintf("cluster%d", i))
						if i%7 == 0 {
							Schedule(s, Duration(i+1)*Millisecond, func() { emit(fmt.Sprintf("reseed%d", i)) })
						}
					})
				}
				// Stage the run across horizons so drained-queue clock
				// advancement is exercised on both queues.
				for _, horizon := range []Time{Time(far / 2), Time(far * 2), Time(Duration(1) << 62)} {
					if err := s.RunUntil(horizon); err != nil {
						t.Fatalf("RunUntil(%d): %v", horizon, err)
					}
					emit("barrier")
				}
				if err := s.Run(); err != nil {
					t.Fatalf("Run: %v", err)
				}
			},
		},
		{
			// Heavy cancellation pressure in several patterns, enough churn
			// to trip threshold compaction on both queues.
			name: "cancel-heavy churn",
			load: func(s *Simulator, emit func(string)) {
				var ids []EventID
				for i := 0; i < 400; i++ {
					i := i
					ids = append(ids, Schedule(s, Duration(i)*Microsecond, func() { emit(fmt.Sprintf("a%d", i)) }))
				}
				for i, id := range ids {
					if i%3 != 0 {
						id.Cancel()
						id.Cancel() // double-cancel must be a no-op
					}
				}
				if err := s.RunFor(100 * Microsecond); err != nil {
					t.Fatalf("RunFor: %v", err)
				}
				emit(fmt.Sprintf("mid pending=%d", s.Pending()))
				// Second wave: cancel from inside handlers, including events
				// later in the same timestamp batch.
				var wave []EventID
				base := s.Now().Add(Millisecond)
				for i := 0; i < 200; i++ {
					i := i
					wave = append(wave, ScheduleAt(s, base, func() {
						emit(fmt.Sprintf("b%d", i))
						if i < len(wave)-1 {
							wave[len(wave)-1-i/2].Cancel()
						}
					}))
				}
				if err := s.Run(); err != nil {
					t.Fatalf("Run: %v", err)
				}
			},
		},
		{
			// Deterministic random soup: delays drawn from the engine RNG
			// across short, mid and far ranges with nested scheduling and
			// random cancels. Identical traces imply the RNG draw order —
			// hence the execution order — never diverged.
			name: "random soup",
			load: func(s *Simulator, emit func(string)) {
				spawned := 0
				var spawn func()
				spawn = func() {
					if spawned >= 3000 {
						return
					}
					spawned++
					n := spawned
					exp := s.RNG().Intn(40)
					id := Schedule(s, Duration(1)<<exp+Duration(s.RNG().Intn(1000)), func() {
						emit(fmt.Sprintf("s%d", n))
						spawn()
						spawn()
					})
					if s.RNG().Float64() < 0.25 {
						id.Cancel()
					}
				}
				for i := 0; i < 8; i++ {
					spawn()
				}
				if err := s.Run(); err != nil {
					t.Fatalf("Run: %v", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := runQueueWorkload(t, &heapQueue{}, tc.load)
			wheel := runQueueWorkload(t, newWheelQueue(), tc.load)
			if len(ref.trace) != len(wheel.trace) {
				t.Fatalf("trace lengths differ: heap %d, wheel %d", len(ref.trace), len(wheel.trace))
			}
			for i := range ref.trace {
				if ref.trace[i] != wheel.trace[i] {
					t.Fatalf("trace entry %d differs:\n  heap:  %s\n  wheel: %s", i, ref.trace[i], wheel.trace[i])
				}
			}
			if ref.now != wheel.now {
				t.Errorf("final Now(): heap %d, wheel %d", ref.now, wheel.now)
			}
			if ref.executed != wheel.executed {
				t.Errorf("Executed(): heap %d, wheel %d", ref.executed, wheel.executed)
			}
			if ref.pending != wheel.pending {
				t.Errorf("Pending(): heap %d, wheel %d", ref.pending, wheel.pending)
			}
			if ref.compactions != wheel.compactions {
				t.Errorf("Compactions(): heap %d, wheel %d", ref.compactions, wheel.compactions)
			}
			if ref.canceledPending != wheel.canceledPending {
				t.Errorf("CanceledPending(): heap %d, wheel %d", ref.canceledPending, wheel.canceledPending)
			}
		})
	}
}
