package sim

// eventQueue is the pending-event store behind a Simulator. Production runs
// use the hierarchical timing wheel (wheel.go); the package tests hold it to
// a binary-heap reference with the same contract, which is what keeps the
// wheel an exact discipline rather than an approximation:
//
//   - peek returns the resident event with the smallest (at, seq), including
//     events that have been cancelled but not yet removed (lazy removal is
//     part of the Simulator's observable counter semantics);
//   - pop removes and returns exactly the event peek would return;
//   - compact removes every cancelled resident event, recycling each through
//     the supplied callback, and reports how many it removed;
//   - len counts every resident event, cancelled or not.
type eventQueue interface {
	push(ev *event)
	peek() *event
	pop() *event
	len() int
	compact(recycle func(*event)) int
}
