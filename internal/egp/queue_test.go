package egp

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/classical"
	"repro/internal/sim"
	"repro/internal/wire"
)

// queuePair wires a master and a slave distributed queue over lossy duplex
// channels on one simulator.
type queuePair struct {
	s      *sim.Simulator
	master *DistributedQueue
	slave  *DistributedQueue
}

func newQueuePair(t *testing.T, loss float64) *queuePair {
	t.Helper()
	s := sim.New(3)
	qp := &queuePair{s: s}
	var toSlave, toMaster *classical.Channel
	toSlave = classical.NewChannel("m->s", s, 50*sim.Microsecond, loss, func(m classical.Message) {
		qp.slave.HandleMessage(m)
	})
	toMaster = classical.NewChannel("s->m", s, 50*sim.Microsecond, loss, func(m classical.Message) {
		qp.master.HandleMessage(m)
	})
	qp.master = NewDistributedQueue(QueueConfig{
		NodeName: "A", IsMaster: true, Sim: s, ToPeer: toSlave, MaxLen: 8,
		RetransmitDelay: 1 * sim.Millisecond, MaxRetries: 5,
	})
	qp.slave = NewDistributedQueue(QueueConfig{
		NodeName: "B", IsMaster: false, Sim: s, ToPeer: toMaster, MaxLen: 8,
		RetransmitDelay: 1 * sim.Millisecond, MaxRetries: 5,
	})
	return qp
}

func newItem(priority uint8, createID uint16) *QueueItem {
	return &QueueItem{
		CreateID:    createID,
		Priority:    priority,
		NumPairs:    1,
		PairsLeft:   1,
		MinFidelity: 0.64,
	}
}

func TestMasterAddPropagatesToSlave(t *testing.T) {
	qp := newQueuePair(t, 0)
	item := newItem(PriorityMD, 1)
	sim.Schedule(qp.s, 0, func() {
		if err := qp.master.Add(item); err != nil {
			t.Errorf("Add: %v", err)
		}
	})
	_ = qp.s.RunFor(10 * sim.Millisecond)

	if qp.master.Len(PriorityMD) != 1 || qp.slave.Len(PriorityMD) != 1 {
		t.Fatalf("both queues should hold the item: master=%d slave=%d", qp.master.Len(PriorityMD), qp.slave.Len(PriorityMD))
	}
	if !item.Confirmed() {
		t.Fatal("master's item should be confirmed after ACK")
	}
	remote := qp.slave.Find(item.ID)
	if remote == nil {
		t.Fatal("slave cannot find the item by its absolute queue ID")
	}
	if remote.CreateID != item.CreateID || remote.Priority != item.Priority {
		t.Fatal("request fields not carried to the slave")
	}
}

func TestSlaveAddGetsMasterAssignedSequence(t *testing.T) {
	qp := newQueuePair(t, 0)
	// Master enqueues one item first so the next sequence number is 1.
	first := newItem(PriorityMD, 1)
	slaveItem := newItem(PriorityMD, 2)
	sim.Schedule(qp.s, 0, func() { _ = qp.master.Add(first) })
	sim.Schedule(qp.s, 1*sim.Millisecond, func() { _ = qp.slave.Add(slaveItem) })
	_ = qp.s.RunFor(20 * sim.Millisecond)

	if slaveItem.ID.QueueSeq != 1 {
		t.Fatalf("slave item should get master-assigned sequence 1, got %v", slaveItem.ID)
	}
	if qp.master.Len(PriorityMD) != 2 || qp.slave.Len(PriorityMD) != 2 {
		t.Fatalf("both queues should hold 2 items: %d, %d", qp.master.Len(PriorityMD), qp.slave.Len(PriorityMD))
	}
	// Queue order must be identical on both sides.
	mItems := qp.master.Items(PriorityMD)
	sItems := qp.slave.Items(PriorityMD)
	for i := range mItems {
		if mItems[i].ID != sItems[i].ID {
			t.Fatalf("queue order differs at %d: %v vs %v", i, mItems[i].ID, sItems[i].ID)
		}
	}
}

func TestQueueSurvivesFrameLoss(t *testing.T) {
	// With 30% frame loss the retransmission machinery must still converge.
	qp := newQueuePair(t, 0.3)
	items := make([]*QueueItem, 6)
	sim.Schedule(qp.s, 0, func() {
		for i := range items {
			items[i] = newItem(PriorityMD, uint16(i))
			if i%2 == 0 {
				_ = qp.master.Add(items[i])
			} else {
				_ = qp.slave.Add(items[i])
			}
		}
	})
	_ = qp.s.RunFor(200 * sim.Millisecond)
	if qp.master.Len(PriorityMD) != qp.slave.Len(PriorityMD) {
		t.Fatalf("queues diverged under loss: master=%d slave=%d", qp.master.Len(PriorityMD), qp.slave.Len(PriorityMD))
	}
	if qp.master.Len(PriorityMD) == 0 {
		t.Fatal("no items survived")
	}
	_, _, _, retransmits := qp.master.Stats()
	_, _, _, retransmitsSlave := qp.slave.Stats()
	if retransmits+retransmitsSlave == 0 {
		t.Fatal("expected retransmissions under 30% loss")
	}
}

// TestQueueRejectsWhenPeerLaneFull: an ADD the peer has no room for in its
// lane is refused with a REJ, and the origin drops the item and reports
// ErrRejected.
func TestQueueRejectsWhenPeerLaneFull(t *testing.T) {
	qp := newQueuePair(t, 0)
	var rejected []*QueueItem
	qp.master.onRejected = func(item *QueueItem, code wire.EGPError) {
		if code == wire.ErrRejected {
			rejected = append(rejected, item)
		}
	}
	first := newItem(PriorityMD, 0)
	sim.Schedule(qp.s, 0, func() {
		_ = qp.master.Add(first)
		for i := 1; i < 8; i++ {
			_ = qp.master.Add(newItem(PriorityMD, uint16(i)))
		}
	})
	_ = qp.s.RunFor(10 * sim.Millisecond)
	if !qp.slave.Full(PriorityMD) {
		t.Fatalf("slave lane holds %d items, want it full at 8", qp.slave.Len(PriorityMD))
	}
	// The master retires one item on its side only: its lane has room where
	// the slave's has none.
	qp.master.Remove(first.ID)
	extra := newItem(PriorityMD, 8)
	sim.Schedule(qp.s, 0, func() {
		if err := qp.master.Add(extra); err != nil {
			t.Errorf("Add: %v", err)
		}
	})
	_ = qp.s.RunFor(10 * sim.Millisecond)
	if len(rejected) != 1 || rejected[0] != extra {
		t.Fatalf("rejected %v, want only the ADD the full slave lane refused", rejected)
	}
	if qp.master.Find(extra.ID) != nil {
		t.Fatal("rejected item should be removed from the master queue")
	}
	if qp.master.Len(PriorityMD) != 7 || qp.slave.Len(PriorityMD) != 8 {
		t.Fatalf("lanes hold master=%d slave=%d, want 7 and 8", qp.master.Len(PriorityMD), qp.slave.Len(PriorityMD))
	}
	if _, _, rejects, _ := qp.slave.Stats(); rejects != 1 {
		t.Fatalf("slave sent %d REJs, want 1", rejects)
	}
}

func TestQueueFullRejectsLocally(t *testing.T) {
	qp := newQueuePair(t, 0)
	sim.Schedule(qp.s, 0, func() {
		for i := 0; i < 8; i++ {
			if err := qp.master.Add(newItem(PriorityMD, uint16(i))); err != nil {
				t.Errorf("Add %d: %v", i, err)
			}
		}
		if err := qp.master.Add(newItem(PriorityMD, 99)); err == nil {
			t.Error("9th item should overflow the 8-item lane")
		}
	})
	_ = qp.s.RunFor(20 * sim.Millisecond)
	if qp.master.Full(PriorityMD) != true {
		t.Fatal("lane should report full")
	}
}

func TestQueueRemoveAndFind(t *testing.T) {
	qp := newQueuePair(t, 0)
	item := newItem(PriorityCK, 5)
	sim.Schedule(qp.s, 0, func() { _ = qp.master.Add(item) })
	_ = qp.s.RunFor(10 * sim.Millisecond)
	if qp.master.Find(item.ID) == nil {
		t.Fatal("item should be findable")
	}
	if !qp.master.Remove(item.ID) {
		t.Fatal("remove should succeed")
	}
	if qp.master.Remove(item.ID) {
		t.Fatal("second remove should fail")
	}
	if qp.master.TotalLen() != 0 {
		t.Fatal("queue should be empty after removal")
	}
	if qp.master.Find(wire.AbsoluteQueueID{QueueID: 9, QueueSeq: 0}) != nil {
		t.Fatal("out-of-range lane lookup should return nil")
	}
}

func TestQueueItemReadiness(t *testing.T) {
	it := newItem(PriorityNL, 1)
	it.ScheduleCycle = 100
	it.TimeoutCycle = 200
	it.confirmed = true
	if it.Ready(50) {
		t.Fatal("item should not be ready before its schedule cycle")
	}
	if !it.Ready(150) {
		t.Fatal("item should be ready between schedule and timeout")
	}
	if it.Ready(201) || !it.Expired(201) {
		t.Fatal("item should be expired after its timeout cycle")
	}
	it.confirmed = false
	if it.Ready(150) {
		t.Fatal("unconfirmed items are never ready")
	}
}

func TestQueueAddGivesUpWithoutPeer(t *testing.T) {
	// A master whose ADDs are all lost must eventually report ERR_NOTIME and
	// clean up its local copy.
	qp := newQueuePair(t, 1.0)
	var failedCode wire.EGPError
	qp.master.onRejected = func(item *QueueItem, code wire.EGPError) { failedCode = code }
	item := newItem(PriorityMD, 1)
	sim.Schedule(qp.s, 0, func() { _ = qp.master.Add(item) })
	_ = qp.s.RunFor(500 * sim.Millisecond)
	if failedCode != wire.ErrNoTime {
		t.Fatalf("expected ERR_NOTIME after retransmissions exhausted, got %v", failedCode)
	}
	if qp.master.TotalLen() != 0 {
		t.Fatal("failed item should be removed from the master queue")
	}
}

func TestInvalidPriorityRejected(t *testing.T) {
	qp := newQueuePair(t, 0)
	item := newItem(0, 1)
	item.Priority = 9
	if err := qp.master.Add(item); err == nil {
		t.Fatal("out-of-range priority should be rejected")
	}
}

// TestQueueCopiesStayEqualAcrossCSEQWraps sends 1,000 ADDs, 500 from each
// side in bursts, over channels that lose 5% of frames, so each side's 8-bit
// CSEQ wraps about twice and many ADDs are retransmitted. Once every burst's
// handshakes have settled, both copies of the queue must hold the same
// items in the same order, the order the master assigned them: a CSEQ seen
// 256 ADDs earlier is a new ADD, not a retransmission. The second case
// starts the master's QueueSeq 500 short of 65,536, so the lane's sequence
// numbers wrap halfway and QueueSeq 0 must queue behind 65,535.
func TestQueueCopiesStayEqualAcrossCSEQWraps(t *testing.T) {
	for _, tc := range []struct {
		name     string
		firstSeq uint16
	}{
		{"from-0", 0},
		{"across-queueseq-wrap", 65536 - 500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qp := newQueuePair(t, 0.05)
			for _, q := range []*DistributedQueue{qp.master, qp.slave} {
				q.maxLen = 1000
				q.maxRetries = 50
			}
			qp.master.nextSeq[PriorityMD] = tc.firstSeq
			const bursts, perBurst = 50, 10
			createID := uint16(0)
			for b := range bursts {
				sim.Schedule(qp.s, 0, func() {
					for range perBurst {
						for _, q := range []*DistributedQueue{qp.master, qp.slave} {
							createID++
							if err := q.Add(newItem(PriorityMD, createID)); err != nil {
								t.Errorf("burst %d: Add: %v", b, err)
							}
						}
					}
				})
				for len(qp.master.handshakes)+len(qp.slave.handshakes) > 0 || qp.s.Pending() > 0 {
					_ = qp.s.RunFor(sim.Millisecond)
				}
				if t.Failed() {
					return
				}
				copies := [2][]string{}
				for i, q := range []*DistributedQueue{qp.master, qp.slave} {
					for j, it := range q.Items(PriorityMD) {
						copies[i] = append(copies[i], fmt.Sprintf("%v/%d/%v", it.ID, it.CreateID, it.confirmed))
						if j > 0 && it.ID.QueueSeq-tc.firstSeq <= q.Items(PriorityMD)[j-1].ID.QueueSeq-tc.firstSeq {
							t.Fatalf("after burst %d: %s lane holds QueueSeq %d at %d, after %d: not in assignment order",
								b, q.nodeName, it.ID.QueueSeq, j, q.Items(PriorityMD)[j-1].ID.QueueSeq)
						}
					}
				}
				if want := 2 * perBurst * (b + 1); len(copies[0]) != want || !slices.Equal(copies[0], copies[1]) {
					t.Fatalf("after burst %d (%d ADDs): master holds %d items, slave %d, want %d each and equal\nmaster: %v\nslave:  %v",
						b, want, len(copies[0]), len(copies[1]), want, copies[0], copies[1])
				}
			}
			if _, _, _, retransmits := qp.master.Stats(); retransmits == 0 {
				t.Fatal("no ADD was retransmitted")
			}
		})
	}
}

// TestQueueRefusesAddWhileWindowFull: a side may not have ADDs in flight
// spanning more than addWindow CSEQs, so the ADD after addWindow
// unacknowledged ones is refused until the oldest is acknowledged, and a
// refused ADD uses no CSEQ.
func TestQueueRefusesAddWhileWindowFull(t *testing.T) {
	qp := newQueuePair(t, 0)
	qp.master.maxLen = 1000
	for i := range addWindow {
		if err := qp.master.Add(newItem(PriorityMD, uint16(i))); err != nil {
			t.Fatalf("ADD %d: %v", i, err)
		}
	}
	if err := qp.master.Add(newItem(PriorityMD, addWindow)); err == nil {
		t.Fatalf("ADD %d accepted with %d unacknowledged", addWindow, addWindow)
	}
	if qp.master.nextCommSeq != addWindow {
		t.Fatalf("a refused ADD took a CSEQ: next %d", qp.master.nextCommSeq)
	}
	_ = qp.s.RunFor(sim.Millisecond)
	if err := qp.master.Add(newItem(PriorityMD, addWindow)); err != nil {
		t.Fatalf("ADD refused after every ACK came: %v", err)
	}
}

// TestAddAllocatesOnlyItsFrame: on either side, an ADD whose first frame is
// lost, retransmitted once and then acknowledged, its item queued among
// others and removed, allocates only the two frames it sends: nothing for
// its handshake, its retransmit timer or its lane position. The slave's ACK
// gives the item a QueueSeq that queues it mid-lane, across the wrap.
func TestAddAllocatesOnlyItsFrame(t *testing.T) {
	s := sim.New(1)
	lost := classical.NewChannel("lost", s, sim.Microsecond, 1, func(classical.Message) {})
	frame := testing.AllocsPerRun(100, func() { lost.Send(wire.DQPFrame{}.Encode()) })
	for _, master := range []bool{true, false} {
		q := NewDistributedQueue(QueueConfig{IsMaster: master, Sim: s, ToPeer: lost, RetransmitDelay: sim.Millisecond})
		for i, seq := range []uint16{65534, 65535, 1, 2} {
			if master {
				_ = q.Add(newItem(PriorityMD, uint16(i)))
				q.handleAck(wire.DQPFrame{Kind: wire.DQPAck, CommSeq: uint8(i)})
				continue
			}
			q.handleAdd(wire.DQPFrame{Kind: wire.DQPAdd, CommSeq: uint8(i), Priority: PriorityMD, NumPairs: 1,
				QueueID: wire.AbsoluteQueueID{QueueID: PriorityMD, QueueSeq: seq}})
		}
		it := newItem(PriorityMD, 9)
		got := testing.AllocsPerRun(100, func() {
			if err := q.Add(it); err != nil {
				t.Fatal(err)
			}
			_ = s.RunFor(3 * sim.Millisecond / 2)
			q.handleAck(wire.DQPFrame{Kind: wire.DQPAck, CommSeq: q.nextCommSeq - 1,
				QueueID: wire.AbsoluteQueueID{QueueID: PriorityMD, QueueSeq: 0}})
			if q.Len(PriorityMD) != 5 || !q.Remove(it.ID) {
				t.Fatalf("master=%v: the acknowledged item is not queued", master)
			}
		})
		if want := 2 * frame; got != want {
			t.Errorf("master=%v: an ADD round trip allocates %v times, want %v (its two frames)", master, got, want)
		}
	}
}
