package sim

import (
	"math/bits"
	"sort"
)

// wheelQueue is a hierarchical timing wheel: the O(1)-amortised event queue
// behind every Simulator.
//
// Simulated time is bucketed into power-of-two granules of 2^wheelGranuleBits
// nanoseconds. Six levels of 256 slots each cover ever-coarser octets of the
// granule number; an event lives at the lowest level whose slot width still
// separates it from the cursor, and cascades down one or more levels as the
// cursor approaches. Events beyond the top level's span (about nine simulated
// years) wait in a plain overflow list that is re-distributed when the wheel
// drains down to it.
//
// Placement is by shared prefix, not by distance: an event's level is the
// highest granule octet in which it differs from the cursor. That makes every
// slot hold exactly one block of granules (no rotation aliasing), so a
// cascade always fully drains its slot and a level-0 slot always holds a
// single granule — which is what lets collection sort one slot and know it
// has the global (at, seq) minimum.
//
// Ordering is exact, not approximate: peek returns the resident event with
// the smallest (at, seq) — including lazily-cancelled events — so the
// Simulator's execution order, counters and the sharded engine's window
// boundaries are those of a binary heap over (at, seq), the reference the
// package tests hold the wheel to. Collected events wait in a sorted ready
// run; events scheduled at or before the cursor (the common "fire this
// instant" case) insert into that run directly. All storage — slots,
// bitmaps, the ready run, the overflow list — is reused, so steady-state
// insert/cancel/tick allocate nothing.
const (
	// wheelGranuleBits sets the level-0 slot width: 2^10 = 1024 simulated
	// nanoseconds, finer than every periodic delay in the stack (the
	// shortest MHP cycle is ~10 µs) so regular ticks land in distinct slots.
	wheelGranuleBits = 10
	// wheelSlotBits sets the fan-out: 256 slots per level, one granule octet.
	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits
	wheelSlotMask = wheelSlots - 1
	// wheelLevels is the hierarchy depth; six octets above the granule cover
	// 2^58 ns ≈ 9 simulated years before the overflow list takes over.
	wheelLevels = 6
	wheelWords  = wheelSlots / 64
	// readyTrimMin is the consumed-prefix length from which readyInsert
	// shifts the ready run back to the front of its storage.
	readyTrimMin = 64
)

type wheelQueue struct {
	// next is the cursor: the earliest granule not yet collected. Every
	// event resident in the slots or overflow has granule >= next; every
	// event in the ready run has granule < next.
	next int64
	// count is the total resident population (slots + overflow + uncollected
	// ready tail): the queue's len().
	count int
	// inWheel counts events currently linked into slots.
	inWheel int

	// slot holds intrusive singly-linked event lists (via event.next);
	// occupied mirrors which slots are non-empty, one bit per slot, so the
	// scan for the next event is a few word operations instead of a walk.
	slot     [wheelLevels][wheelSlots]*event
	occupied [wheelLevels][wheelWords]uint64

	// ready is the collected run, sorted ascending by (at, seq); readyPos is
	// the consumption cursor within it.
	ready    []*event
	readyPos int

	// overflow holds events beyond the top level's span.
	overflow []*event
}

func newWheelQueue() *wheelQueue { return &wheelQueue{} }

func (w *wheelQueue) len() int { return w.count }

func (w *wheelQueue) push(ev *event) {
	w.count++
	w.place(ev)
}

// place routes an event to the ready run, a wheel slot, or the overflow list.
// It does not touch count, so cascades and overflow drains can re-place
// already-counted events.
func (w *wheelQueue) place(ev *event) {
	g := int64(ev.at) >> wheelGranuleBits
	if g < w.next {
		// At or before the cursor (already-collected region): insert into
		// the sorted ready run directly.
		w.readyInsert(ev)
		return
	}
	d := uint64(g ^ w.next)
	l := 0
	if d != 0 {
		l = (bits.Len64(d)+7)/8 - 1
	}
	if l >= wheelLevels {
		w.overflow = append(w.overflow, ev)
		return
	}
	idx := (g >> (wheelSlotBits * l)) & wheelSlotMask
	ev.next = w.slot[l][idx]
	w.slot[l][idx] = ev
	w.occupied[l][idx>>6] |= 1 << (idx & 63)
	w.inWheel++
}

// readyInsert places ev into the uncollected portion of the sorted ready run,
// keeping (at, seq) order. The common case — the new event fires at or after
// everything already collected — appends in O(1).
//
// The run is otherwise cut back only when refill finds it fully consumed,
// which never happens while near events keep landing in front of a collected
// far one; so once the consumed prefix is at least readyTrimMin long and
// covers half the run, it is dropped here (amortised O(1) per pop).
func (w *wheelQueue) readyInsert(ev *event) {
	if w.readyPos >= readyTrimMin && 2*w.readyPos >= len(w.ready) {
		n := copy(w.ready, w.ready[w.readyPos:])
		clear(w.ready[n:])
		w.ready = w.ready[:n]
		w.readyPos = 0
	}
	lo, hi := w.readyPos, len(w.ready)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m := w.ready[mid]
		if m.at < ev.at || (m.at == ev.at && m.seq < ev.seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.ready = append(w.ready, nil)
	copy(w.ready[lo+1:], w.ready[lo:])
	w.ready[lo] = ev
}

func (w *wheelQueue) peek() *event {
	if w.readyPos < len(w.ready) {
		return w.ready[w.readyPos]
	}
	if !w.refill() {
		return nil
	}
	return w.ready[w.readyPos]
}

func (w *wheelQueue) pop() *event {
	ev := w.peek()
	if ev == nil {
		return nil
	}
	w.ready[w.readyPos] = nil
	w.readyPos++
	w.count--
	return ev
}

// refill advances the cursor to the next occupied granule and collects that
// granule's slot into the ready run, cascading higher levels down as their
// blocks are reached. Returns false when no events are resident anywhere.
func (w *wheelQueue) refill() bool {
	// The previous run is fully consumed; reset its storage for reuse.
	w.ready = w.ready[:0]
	w.readyPos = 0
	for {
		if w.inWheel == 0 {
			if len(w.overflow) == 0 {
				return false
			}
			w.reseedFromOverflow()
			continue
		}
		// Find, across all levels, the occupied slot whose granule block
		// starts earliest. Every resident event's granule is bounded below
		// by its own slot's block start, so the minimum block start is a
		// safe place to advance the cursor to. On a tie the higher level
		// wins: its slot must cascade (its events can precede the lower
		// level's) before the lower level's slot may be collected.
		bestG := int64(-1)
		bestL := -1
		for l := 0; l < wheelLevels; l++ {
			pos := int((w.next >> (wheelSlotBits * l)) & wheelSlotMask)
			s := nextSetBit(&w.occupied[l], pos)
			if s < 0 {
				continue
			}
			c := ((w.next>>(wheelSlotBits*l))&^wheelSlotMask | int64(s)) << (wheelSlotBits * l)
			if bestL < 0 || c <= bestG {
				bestG, bestL = c, l
			}
		}
		if bestL == 0 {
			// Collect: the level-0 slot holds exactly granule bestG.
			idx := bestG & wheelSlotMask
			ev := w.slot[0][idx]
			w.slot[0][idx] = nil
			w.occupied[0][idx>>6] &^= 1 << (idx & 63)
			for ev != nil {
				next := ev.next
				ev.next = nil
				w.inWheel--
				w.ready = append(w.ready, ev)
				ev = next
			}
			w.next = bestG + 1
			sort.Sort((*readyOrder)(w))
			return true
		}
		// Cascade: advance the cursor to the block start, detach the slot
		// and re-place its events — they all share the cursor's new prefix
		// above this level, so each lands at a strictly lower level.
		w.next = bestG
		idx := (bestG >> (wheelSlotBits * bestL)) & wheelSlotMask
		ev := w.slot[bestL][idx]
		w.slot[bestL][idx] = nil
		w.occupied[bestL][idx>>6] &^= 1 << (idx & 63)
		for ev != nil {
			next := ev.next
			ev.next = nil
			w.inWheel--
			w.place(ev)
			ev = next
		}
	}
}

// reseedFromOverflow jumps the cursor to the earliest overflow granule and
// re-distributes the overflow list into the wheel (events still beyond the
// top span simply land back in overflow).
func (w *wheelQueue) reseedFromOverflow() {
	min := int64(w.overflow[0].at) >> wheelGranuleBits
	for _, ev := range w.overflow[1:] {
		if g := int64(ev.at) >> wheelGranuleBits; g < min {
			min = g
		}
	}
	w.next = min
	pending := w.overflow
	w.overflow = w.overflow[:0]
	for i, ev := range pending {
		pending[i] = nil
		w.place(ev)
	}
}

// compact removes every cancelled resident event (ready tail, slots,
// overflow), recycling each, and reports how many were removed.
func (w *wheelQueue) compact(recycle func(*event)) int {
	removed := 0
	j := w.readyPos
	for i := w.readyPos; i < len(w.ready); i++ {
		ev := w.ready[i]
		if ev.canceled {
			recycle(ev)
			removed++
			continue
		}
		w.ready[j] = ev
		j++
	}
	for i := j; i < len(w.ready); i++ {
		w.ready[i] = nil
	}
	w.ready = w.ready[:j]
	for l := range w.slot {
		for idx := range w.slot[l] {
			pp := &w.slot[l][idx]
			for *pp != nil {
				ev := *pp
				if ev.canceled {
					*pp = ev.next
					recycle(ev)
					removed++
					w.inWheel--
					continue
				}
				pp = &ev.next
			}
			if w.slot[l][idx] == nil {
				w.occupied[l][idx>>6] &^= 1 << (idx & 63)
			}
		}
	}
	j = 0
	for _, ev := range w.overflow {
		if ev.canceled {
			recycle(ev)
			removed++
			continue
		}
		w.overflow[j] = ev
		j++
	}
	for i := j; i < len(w.overflow); i++ {
		w.overflow[i] = nil
	}
	w.overflow = w.overflow[:j]
	w.count -= removed
	return removed
}

// readyOrder sorts a wheelQueue's ready run by (at, seq). It is a view type
// so sorting needs no per-call allocation.
type readyOrder wheelQueue

func (r *readyOrder) Len() int { return len(r.ready) }
func (r *readyOrder) Less(i, j int) bool {
	a, b := r.ready[i], r.ready[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
func (r *readyOrder) Swap(i, j int) { r.ready[i], r.ready[j] = r.ready[j], r.ready[i] }

// nextSetBit returns the lowest set bit index >= from in the 256-bit set, or
// -1 when none is set at or above from.
func nextSetBit(words *[wheelWords]uint64, from int) int {
	wi := from >> 6
	if first := words[wi] >> (from & 63); first != 0 {
		return from + bits.TrailingZeros64(first)
	}
	for wi++; wi < wheelWords; wi++ {
		if words[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(words[wi])
		}
	}
	return -1
}
