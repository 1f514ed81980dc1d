package mhp

import (
	"math"

	"repro/internal/sim"
)

// Clock is the MHP cycle clock of one engine: the serial simulator, or one
// shard of the sharded engine. Each cycle it fires one event and polls its
// active nodes in registration order. A node leaves the active set (parks)
// after a poll that leaves its generator idle and its attempts all answered,
// and rejoins when its generator wakes it (Node.Wake); until then its polls
// are skipped, so an idle link costs nothing per cycle.
//
// The clock runs the same trajectory as one ticker per node:
//
//   - Tick order. Every node's tick at time T would be scheduled inside the
//     batch at T−P (P the cycle period), so no other event falls between the
//     ticks at T unless something schedules exactly one period ahead from
//     inside that batch, which no protocol delay does. The clock sits at the
//     first tick's place and polls the nodes in their old order.
//   - Parked polls. A parked node's poll is a no-op: its generator has
//     nothing queued and nothing outstanding, and it has no pending attempt.
//     It commutes with every other event, so leaving it out changes nothing.
//   - Cycle numbers. There is one counter, on the clock. During the clock's
//     batch a node the clock has already reached reads cycle k and a node it
//     has not reached reads k−1, which is what the node's own ticker showed.
//     A node woken inside the batch is polled this cycle only if the clock
//     has not reached its slot yet.
type Clock struct {
	eng    sim.Engine
	period sim.Duration
	// onTick is the tick handler, built once so rescheduling allocates
	// nothing.
	onTick sim.ArgHandler

	// cycle counts the ticks fired: the current MHP cycle.
	cycle uint64
	// slots counts registered nodes; a node's slot is its registration
	// index. active holds the unparked nodes ordered by slot.
	slots  int
	active []*Node
	// pos is the index in active of the node being polled. cursor is its
	// slot: −1 at the start of a cycle, math.MaxInt outside the tick.
	pos    int
	cursor int

	id      sim.EventID
	running bool

	polls uint64
}

// NewClock builds a stopped clock on the given engine. Its period is the
// cycle period of the first node added.
func NewClock(eng sim.Engine) *Clock {
	c := &Clock{eng: eng, cursor: math.MaxInt}
	c.onTick = c.tick
	return c
}

// Add registers a node with the clock; nodes are polled in the order they
// were added. A node joins at most one clock, and every node of a clock must
// share its cycle period. A node added while it has work is active at once.
func (c *Clock) Add(n *Node) {
	if n.clock != nil {
		panic("mhp: node " + n.Name + " already runs on a clock")
	}
	p := n.link.period
	if c.period == 0 {
		c.period = p
	} else if p != c.period {
		panic("mhp: node " + n.Name + " has a different cycle period than its clock")
	}
	n.clock, n.slot = c, c.slots
	c.slots++
	if !n.parked {
		c.active = append(c.active, n)
	}
}

// Start schedules the clock's next tick one period from now; a running clock
// is left as it is. The cycle count carries on across a stop and restart.
func (c *Clock) Start() (stop func()) {
	if c.period <= 0 {
		panic("mhp: clock has no nodes")
	}
	if !c.running {
		c.running = true
		c.id = c.eng.ScheduleArgAt(c.eng.Now().Add(c.period), c.onTick, nil)
	}
	return c.Stop
}

// Stop cancels the pending tick. Stopping is idempotent.
func (c *Clock) Stop() {
	if c.running {
		c.running = false
		c.id.Cancel()
	}
}

// Ticks returns how many tick events (cycles) the clock has fired.
func (c *Clock) Ticks() uint64 { return c.cycle }

// Polls returns how many node polls (runCycle calls) the clock has made.
func (c *Clock) Polls() uint64 { return c.polls }

// tick runs one cycle: it polls every active node in slot order and parks
// the ones left idle, then rearms relative to the firing time.
func (c *Clock) tick(now sim.Time, _ any) {
	c.cycle++
	c.cursor = -1
	for c.pos = 0; c.pos < len(c.active); {
		n := c.active[c.pos]
		c.cursor = n.slot
		c.polls++
		n.runCycle(c.cycle)
		if len(n.pending) == 0 && n.gen.Idle() {
			n.parked, n.parkedAt = true, c.cycle
			copy(c.active[c.pos:], c.active[c.pos+1:])
			c.active[len(c.active)-1] = nil
			c.active = c.active[:len(c.active)-1]
		} else {
			c.pos++
		}
	}
	c.cursor = math.MaxInt
	if c.running {
		c.id = c.eng.ScheduleArgAt(now.Add(c.period), c.onTick, nil)
	}
}

// cycleOf returns the cycle a node reads: during a tick, k once the clock has
// reached the node's slot and k−1 before.
func (c *Clock) cycleOf(n *Node) uint64 {
	if n.slot > c.cursor {
		return c.cycle - 1
	}
	return c.cycle
}

// activate inserts a woken node into the active set at its slot. Inserting
// before the node being polled shifts that node one place on.
func (c *Clock) activate(n *Node) {
	i := len(c.active)
	for i > 0 && c.active[i-1].slot > n.slot {
		i--
	}
	c.active = append(c.active, nil)
	copy(c.active[i+1:], c.active[i:])
	c.active[i] = n
	if i <= c.pos {
		c.pos++
	}
}
