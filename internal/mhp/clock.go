package mhp

import (
	"math"
	"slices"

	"repro/internal/nv"
	"repro/internal/sim"
)

// Clock is the MHP cycle clock of one engine: the serial simulator, or one
// shard of the sharded engine. Each cycle it polls its active nodes in
// registration order, in one event. A node leaves the active set (parks)
// after a poll that attempts nothing, until the first cycle whose poll could
// act (Generator.Quiet; with attempts pending, no later than the next
// maintenance pass) or an event wakes it (Node.Wake). Until then its polls
// are skipped, so a node that cannot attempt costs nothing per cycle.
//
// The clock runs the same trajectory as one ticker per node:
//
//   - Tick order. Every node's tick at time T would be scheduled inside the
//     batch at T−P (P the cycle period), so no other event falls between the
//     ticks at T unless something schedules exactly one period ahead from
//     inside that batch, which no protocol delay does. The clock sits at the
//     first tick's place and polls the nodes in their old order.
//   - Parked polls. A parked node's poll is a no-op until its cycle or an
//     event, so it commutes with every other event and can be left out.
//   - Cycle numbers. There is one counter, on the clock. During the clock's
//     batch a node the clock has already reached reads cycle k and a node it
//     has not reached reads k−1, which is what the node's own ticker showed.
//     A node woken inside the batch is polled this cycle only if the clock
//     has not reached its slot yet.
//
// When the tick reaches a link whose two nodes are both active, it first
// offers the link the coming cycles to fold (see fold). A link that takes n
// of them rests: it leaves the active set until the first cycle it did not
// take. (A Stop of the engine from another link's event therefore leaves a
// resting link's counters ahead of the stop instant until the run resumes.)
// Each link folds up to its own horizon, since failed attempts on different
// links commute. Where events of one link act on others (netsim's network
// layer), the clock folds every active link in lockstep instead (Lockstep):
// all take the same cycles or none does.
//
// A tick that leaves no node active is followed by cycles that poll no one
// until a resting link resumes, a timed wake comes or an event wakes a
// node, and no event runs before the engine's horizon. The clock does not
// fire those ticks: it counts their cycles and rearms at the first of those
// cycles or the last cycle before the horizon, so the tick after that is
// again scheduled from the batch one period before it. The skipped
// ticks are no-ops that commute with every other event, so the trajectory
// is unchanged, and at the end of a RunUntil the clock has counted every
// cycle up to the limit.
type Clock struct {
	eng    sim.Engine
	period sim.Duration
	// onTick is the tick handler, built once so rescheduling allocates
	// nothing.
	onTick sim.ArgHandler

	// cycle is the current MHP cycle: the ticks fired and the cycles
	// skipped.
	cycle uint64
	// slots counts registered nodes; a node's slot is its registration
	// index. active holds the unparked nodes ordered by slot, less the
	// resting ones.
	slots  int
	active []*Node
	// resting holds the links that have folded cycles ahead of the clock,
	// each with the first cycle it did not take, latest first; waking holds
	// the nodes parked until a cycle (Node.wakeAt), latest first.
	resting []restingLink
	waking  []*Node
	// pos is the index in active of the node being polled. cursor is its
	// slot: −1 at the start of a cycle, math.MaxInt outside the tick.
	pos    int
	cursor int

	id      sim.EventID
	running bool

	// lockstep folds every active link together (Lockstep); folding holds
	// the links of the fold being made, reused from tick to tick.
	lockstep bool
	folding  []foldLink

	polls uint64
}

// foldLink is one link's part in a fold: its generators' steady decisions,
// its random stream, and whether the first folded attempt dephased a stored
// pair at either node.
type foldLink struct {
	link    *Link
	dA, dB  PollDecision
	rng     *sim.RNG
	dephase bool
}

// restingLink is a link that has folded cycles up to, not including, cycle.
type restingLink struct {
	link  *Link
	cycle uint64
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
		// A stop shifts the cycles to come, which timed wakes reckon in time.
		for len(c.waking) > 0 {
			c.unpark()
		}
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

// Lockstep makes the clock fold its links in lockstep (see Clock and
// foldAll): netsim's network layer acts on several links from one link's
// event, so a link may fold its failed attempts only while no other link can
// succeed. Call it before the clock starts.
func (c *Clock) Lockstep() { c.lockstep = true }

// Ticks returns how many cycles the clock has run, counting the cycles it
// skipped because they polled no one (see Clock), so it can exceed the
// clock's tick events.
func (c *Clock) Ticks() uint64 { return c.cycle }

// Polls returns how many node polls the clock has made, two for each cycle
// a fold took.
func (c *Clock) Polls() uint64 { return c.polls }

// tick runs one cycle: it returns the links and nodes whose rest ends at
// this cycle to the active set, polls every active node in slot order and
// parks the quiet ones, then rearms relative to the firing time. At the
// first node of a link whose nodes are both active it offers the link the
// coming cycles to fold; a lockstep clock offers them to every active link
// at once before it polls. With no node left active it skips the cycles
// that would poll no one (see Clock).
func (c *Clock) tick(now sim.Time, _ any) {
	c.cycle++
	c.cursor = -1
	for len(c.resting) > 0 && c.resting[len(c.resting)-1].cycle <= c.cycle {
		l := c.resting[len(c.resting)-1].link
		c.resting = c.resting[:len(c.resting)-1]
		c.insert(&l.nodes[nv.SideA])
		c.insert(&l.nodes[nv.SideB])
	}
	for len(c.waking) > 0 && c.waking[len(c.waking)-1].wakeAt <= c.cycle {
		c.unpark()
	}
	if c.lockstep && len(c.active) > 0 {
		if k := c.foldAll(now); k > 0 {
			for i := range c.folding {
				c.restUntil(c.folding[i].link, c.cycle+k)
			}
			c.active = c.active[:0]
		}
	}
	for c.pos = 0; c.pos < len(c.active); {
		n := c.active[c.pos]
		c.cursor = n.slot
		if k := c.fold(now, n); k > 0 {
			c.active = slices.Delete(c.active, c.pos, c.pos+2)
			c.restUntil(n.link, c.cycle+k)
			continue
		}
		c.polls++
		if !n.runCycle(c.cycle) {
			if wake := n.quiet(c.cycle); wake > c.cycle+1 {
				c.park(n, wake)
				continue
			}
		}
		c.pos++
	}
	c.cursor = math.MaxInt
	if !c.running {
		return
	}
	next := now.Add(c.period)
	if len(c.active) == 0 {
		if h := c.eng.Horizon(); next < h {
			idle := uint64((h - 1 - next) / sim.Time(c.period))
			if r := len(c.resting) - 1; r >= 0 {
				idle = min(idle, c.resting[r].cycle-c.cycle-1)
			}
			if w := len(c.waking) - 1; w >= 0 {
				idle = min(idle, c.waking[w].wakeAt-c.cycle-1)
			}
			c.cycle += idle
			next = next.Add(sim.Duration(idle) * c.period)
		}
	}
	c.id = c.eng.ScheduleArgAt(next, c.onTick, nil)
}

// fold offers the link of node n, the one being polled, the cycles from the
// current one on, up to the link's own horizon (the Horizon of its engine
// view), when the clock does not fold in lockstep, n is the link's A node and
// its B node is active and polled next. It returns how many cycles the link
// took.
func (c *Clock) fold(now sim.Time, n *Node) uint64 {
	if c.lockstep || n.side != nv.SideA || c.pos+1 >= len(c.active) || c.active[c.pos+1] != &n.link.nodes[nv.SideB] {
		return 0
	}
	c.folding = append(c.folding[:0], foldLink{link: n.link})
	return c.foldLinks(now, n.link.eng, math.MaxUint64)
}

// foldAll offers every active link the cycles from the current one on, in
// lockstep, when every active node's link has both nodes active, and returns
// how many cycles the links took. The window is the clock engine's horizon,
// not the links' own (an event of a link that is not folding, or one that
// belongs to no link, may reach another link through the network layer),
// and ends before the earliest timed wake, whose node may attempt.
//
// No link rests when a lockstep is offered, so none can succeed unseen inside
// its window. A lockstep leaves no node active, so a node joins the active
// set only on an event or a timed wake, at or after the window's end, and
// by then every resting link has resumed. (A link that folded on its own
// before Lockstep keeps the cycles it took.)
func (c *Clock) foldAll(now sim.Time) uint64 {
	c.folding = c.folding[:0]
	for i := 0; i < len(c.active); i += 2 {
		n := c.active[i]
		if n.side != nv.SideA || i+1 >= len(c.active) || c.active[i+1] != &n.link.nodes[nv.SideB] {
			return 0
		}
		c.folding = append(c.folding, foldLink{link: n.link})
	}
	limit := uint64(math.MaxUint64)
	if w := len(c.waking) - 1; w >= 0 {
		limit = c.waking[w].wakeAt - c.cycle
	}
	return c.foldLinks(now, c.eng, limit)
}

// foldLinks runs, inside the tick at now, the coming run of failed attempts
// of the links in c.folding together, from the current cycle on, and returns
// how many cycles each took, at most limit; every link's next poll is then
// the first cycle they did not take. They take none unless every link can
// fold (Link.canFold) and both its generators report the same steady
// decision (Generator.Steady), and take cycle j only if every link's answer
// to it falls strictly before the horizon of eng: nothing that can touch the
// links then runs between the poll at now and the last instant of cycle j.
// The clock's ticks and the events of links outside the fold may, and they
// commute with it.
//
// The fold draws cycle j of each link from the link's own stream as its
// events would (Link.drawCycle: the frames' losses and the optical test), and
// stops before the first cycle in which any link succeeds or loses a frame.
// Every link that drew that cycle holds its draws for the real events
// (LinkSampler.Draw and Link.lost; a lone loss-free link's FailRun holds a
// success only), so that cycle and everything after it run as usual. Of the
// failed cycles it applies in bulk all that their events would have done
// (Link.absorb), and the carbon dephasing of every attempt in cycle, then
// slot, order: a swapped pair spans two links' devices, and its dephasing
// channels do not commute to the last bit. Every random draw, record and
// counter is therefore the same as attempt by attempt; only the records'
// place in a ring shared with other links differs.
func (c *Clock) foldLinks(now sim.Time, eng sim.Engine, limit uint64) uint64 {
	folding := c.folding
	for i := range folding {
		if !folding[i].link.canFold() {
			return 0
		}
	}
	h := eng.Horizon()
	n := limit
	for i := range folding {
		n = min(n, folding[i].link.window(now, h))
	}
	for i := 0; i < len(folding) && n > 0; i++ {
		f := &folding[i]
		var steady uint64
		f.dA, f.dB, steady = f.link.steady(c.cycle)
		f.rng = f.link.eng.RNG()
		n = min(n, steady)
	}
	if n == 0 {
		return 0
	}
	if f := &folding[0]; len(folding) == 1 && !f.link.lossy() {
		n, _ = f.link.sampler.FailRun(f.dA.Alpha, f.dB.Alpha, f.rng, n)
	} else {
		n = c.drawLockstep(n)
	}
	if n == 0 {
		return 0
	}

	dephase := false
	for i := range folding {
		f := &folding[i]
		l := f.link
		l.absorb(now, c.cycle, n, f.dA, f.dB)
		// Dephasing acts only on pairs in a carbon: when the first folded
		// attempt finds none at either node, the rest find none either.
		actedA := l.nodes[nv.SideA].device.ApplyAttemptDephasing(f.dA.Alpha)
		actedB := l.nodes[nv.SideB].device.ApplyAttemptDephasing(f.dB.Alpha)
		f.dephase = actedA || actedB
		dephase = dephase || f.dephase
	}
	if dephase {
		for range n - 1 {
			for i := range folding {
				if f := &folding[i]; f.dephase {
					f.link.nodes[nv.SideA].device.ApplyAttemptDephasing(f.dA.Alpha)
					f.link.nodes[nv.SideB].device.ApplyAttemptDephasing(f.dB.Alpha)
				}
			}
		}
	}
	c.polls += 2 * n * uint64(len(folding))
	return n
}

// drawLockstep draws the attempts of the links in c.folding cycle by cycle
// (Link.drawCycle), each link in slot order from its own stream, for up to w
// cycles, and returns how many cycles failed with every frame delivered on
// every link. The links that drew the cycle in which one succeeded or lost a
// frame hold those draws. A lone lossy link folds through it too.
func (c *Clock) drawLockstep(w uint64) uint64 {
	for j := range w {
		for i := range c.folding {
			f := &c.folding[i]
			if !f.link.drawCycle(f.dA.Alpha, f.dB.Alpha, f.rng) {
				return j
			}
		}
		for i := range c.folding {
			c.folding[i].link.failCycle()
		}
	}
	return w
}

// restUntil adds the link to the resting links until cycle; its nodes are
// already out of the active set.
func (c *Clock) restUntil(l *Link, cycle uint64) {
	i := len(c.resting)
	for i > 0 && c.resting[i-1].cycle < cycle {
		i--
	}
	c.resting = slices.Insert(c.resting, i, restingLink{l, cycle})
}

// park takes node n, being polled at pos, out of the active set until cycle
// wake (math.MaxUint64: until Wake).
func (c *Clock) park(n *Node, wake uint64) {
	n.parked, n.parkedAt, n.wakeAt = true, c.cycle, wake
	c.active = slices.Delete(c.active, c.pos, c.pos+1)
	if wake != math.MaxUint64 {
		i := len(c.waking)
		for i > 0 && c.waking[i-1].wakeAt < wake {
			i--
		}
		c.waking = slices.Insert(c.waking, i, n)
	}
}

// unpark returns the node of the earliest timed wake to the active set,
// counting the polls it skipped (PolledCycle).
func (c *Clock) unpark() {
	n := c.waking[len(c.waking)-1]
	c.waking = c.waking[:len(c.waking)-1]
	n.polled, n.parked = n.PolledCycle(), false
	c.insert(n)
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
	if i := slices.Index(c.waking, n); i >= 0 {
		c.waking = slices.Delete(c.waking, i, i+1)
	}
	if c.insert(n) <= c.pos {
		c.pos++
	}
}

// insert puts n into the active set at its slot and returns its index.
func (c *Clock) insert(n *Node) int {
	i := len(c.active)
	for i > 0 && c.active[i-1].slot > n.slot {
		i--
	}
	c.active = slices.Insert(c.active, i, n)
	return i
}
