package sim

// eventHeap is the pending-event store behind a Simulator: a binary min-heap
// on (at, seq), so events pop in exact (time, insertion order). The package
// tests hold it to a container/heap reference (TestQueueMatchesReferenceHeap)
// and to whole workloads pinned on the timing wheel it replaced
// (TestQueueDisciplineParity). Its contract:
//
//   - peek returns the resident event with the smallest (at, seq), including
//     events that have been cancelled but not yet removed (lazy removal is
//     part of the Simulator's observable counter semantics);
//   - pop removes and returns exactly the event peek would return;
//   - compact removes every cancelled resident event, recycling each through
//     the supplied callback, rebuilds the heap, and reports how many it
//     removed;
//   - len counts every resident event, cancelled or not.
//
// The backing array is reused, so steady-state push and pop allocate
// nothing.
type eventHeap []*event

func (q *eventHeap) len() int { return len(*q) }

func (q *eventHeap) peek() *event {
	if len(*q) == 0 {
		return nil
	}
	return (*q)[0]
}

func (q *eventHeap) push(ev *event) {
	*q = append(*q, ev)
	q.up(len(*q) - 1)
}

func (q *eventHeap) pop() *event {
	h := *q
	last := len(h) - 1
	if last < 0 {
		return nil
	}
	ev := h[0]
	h[0] = h[last]
	h[last] = nil
	*q = h[:last]
	q.down(0)
	return ev
}

func (q *eventHeap) compact(recycle func(*event)) int {
	h := *q
	live := h[:0]
	for _, ev := range h {
		if ev.canceled {
			recycle(ev)
			continue
		}
		live = append(live, ev)
	}
	clear(h[len(live):])
	*q = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	return len(h) - len(live)
}

// before reports whether a pops before b.
func before(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (q eventHeap) up(i int) {
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !before(ev, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

func (q eventHeap) down(i int) {
	if i >= len(q) {
		return
	}
	ev := q[i]
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && before(q[r], q[c]) {
			c = r
		}
		if !before(q[c], ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = ev
}
