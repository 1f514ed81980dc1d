package sim

import (
	"cmp"
	"container/heap"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// heapQueue is the reference event queue: a container/heap min-heap over
// (at, seq). TestQueueMatchesReferenceHeap holds the Simulator's eventHeap to
// its pops.
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
// execution trace, by length and FNV-64a hash, plus the final counter state.
type queueParityResult struct {
	traceLen        int
	traceHash       uint64
	now             Time
	executed        uint64
	pending         int
	compactions     uint64
	canceledPending int
}

// runQueueWorkload runs load on a fresh Simulator.
func runQueueWorkload(t *testing.T, load func(s *Simulator, emit func(string))) queueParityResult {
	t.Helper()
	s := New(1)
	h := fnv.New64a()
	n := 0
	load(s, func(tag string) {
		fmt.Fprintf(h, "t=%d %s\n", s.Now(), tag)
		n++
	})
	return queueParityResult{
		traceLen:        n,
		traceHash:       h.Sum64(),
		now:             s.Now(),
		executed:        s.Executed(),
		pending:         s.Pending(),
		compactions:     s.Compactions(),
		canceledPending: s.CanceledPending(),
	}
}

// TestQueueDisciplineParity runs adversarial scheduling patterns on a
// Simulator and requires each run's trace and counters to equal values
// recorded when the timing wheel, held to the reference heap, was the queue.
// Each workload drives the run itself (often in RunUntil stages, so
// clock-advance behaviour at drained horizons is compared too).
func TestQueueDisciplineParity(t *testing.T) {
	cases := []struct {
		name string
		load func(s *Simulator, emit func(string))
		want queueParityResult
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
			want: queueParityResult{traceLen: 110, traceHash: 5934408590018555900, now: 1003000, executed: 111},
		},
		{
			// Delays from 1 ns to 2^60 ns (every level of the old timing wheel
			// and its overflow list), a dense cluster at a far horizon, and
			// near events scheduled from inside far-future handlers.
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
			want: queueParityResult{traceLen: 82, traceHash: 6291395004287034045, now: 4611686018427387904, executed: 79},
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
			want: queueParityResult{traceLen: 268, traceHash: 4001872752669888432, now: 1100000, executed: 267, compactions: 1},
		},
		{
			// Stop inside a batch re-pushes the batch's unexecuted rest, which
			// the next run pops in the original order. The last run ends
			// stopped, with live and cancelled events still resident.
			name: "stop mid-batch",
			load: func(s *Simulator, emit func(string)) {
				var ids []EventID
				for i := 0; i < 100; i++ {
					i := i
					ids = append(ids, ScheduleAt(s, Time(i%5)*Time(Millisecond), func() {
						emit(fmt.Sprintf("e%d", i))
						if i%17 == 3 {
							s.Stop()
						}
					}))
				}
				for i := 0; i < len(ids); i += 7 {
					ids[i].Cancel()
				}
				for k := 0; k < 3; k++ {
					err := s.Run()
					emit(fmt.Sprintf("run%d %v pending=%d", k, err, s.Pending()))
				}
			},
			want: queueParityResult{traceLen: 44, traceHash: 11741483685842082711, now: 2000000, executed: 41, pending: 50, canceledPending: 6},
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
			want: queueParityResult{traceLen: 2254, traceHash: 6172925718352513219, now: 550389252392, executed: 2254},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := runQueueWorkload(t, tc.load); got != tc.want {
				t.Errorf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestQueueMatchesReferenceHeap feeds the production queue and the reference
// heap one seeded sequence of pushes (many of them tied in time), cancels,
// compactions and pops, and requires the same event from every peek and pop,
// the same events from every compaction, and the same len after every step.
func TestQueueMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventHeap
		ref := &heapQueue{}
		var live []*event // resident in both queues
		var now Time
		var seq uint64
		for step := 0; step < 4000; step++ {
			switch r := rng.Intn(20); {
			case r < 9:
				at := now + Time(rng.Intn(4))*Time(Microsecond)
				if rng.Intn(8) == 0 {
					at = now + Time(1)<<rng.Intn(50)
				}
				ev := &event{at: at, seq: seq}
				seq++
				q.push(ev)
				ref.push(ev)
				live = append(live, ev)
			case r < 12:
				if len(live) > 0 {
					live[rng.Intn(len(live))].canceled = true
				}
			case r < 13:
				var got, want []*event
				n := q.compact(func(ev *event) { got = append(got, ev) })
				m := ref.compact(func(ev *event) { want = append(want, ev) })
				if n != m || n != len(got) || m != len(want) || !sameEvents(got, want) {
					t.Fatalf("seed %d step %d: compact removed %d %v, reference %d %v", seed, step, n, got, m, want)
				}
				live = slices.DeleteFunc(live, func(ev *event) bool { return ev.canceled })
			default:
				if got, want := q.peek(), ref.peek(); got != want {
					t.Fatalf("seed %d step %d: peek %v, reference %v", seed, step, got, want)
				}
				got, want := q.pop(), ref.pop()
				if got != want {
					t.Fatalf("seed %d step %d: pop %v, reference %v", seed, step, got, want)
				}
				if got != nil {
					now = got.at
					live = slices.DeleteFunc(live, func(ev *event) bool { return ev == got })
				}
			}
			if q.len() != ref.len() || q.len() != len(live) {
				t.Fatalf("seed %d step %d: len %d, reference %d, resident %d", seed, step, q.len(), ref.len(), len(live))
			}
		}
	}
}

// sameEvents reports whether a and b hold the same events, in any order.
func sameEvents(a, b []*event) bool {
	bySeq := func(x, y *event) int { return cmp.Compare(x.seq, y.seq) }
	slices.SortFunc(a, bySeq)
	slices.SortFunc(b, bySeq)
	return slices.Equal(a, b)
}
