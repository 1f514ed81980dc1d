package mhp

// PendingCap returns the capacity of the node's pending-attempt slice, which
// keeps the capacity it grows to.
func PendingCap(n *Node) int { return cap(n.pending.buf) }
