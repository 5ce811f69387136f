// Package des implements a deterministic discrete-event simulation engine:
// a virtual clock plus a binary-heap scheduler with FIFO tie-breaking.
//
// Two schedulers are provided. DeliveryQueue is the typed one: events are
// plain {time, node, slot} records popped in a loop by the caller, so
// scheduling an event costs one append into a flat heap instead of a
// closure allocation plus container/heap interface boxing. No simulation
// uses it: its one non-test user is the benchmark's des.queue_ns_per_op,
// which times it directly, and the workload engine's tests keep a global
// DeliveryQueue replay of block deliveries as the reference its per-node
// inboxes are checked against. netsim.Broadcaster orders first arrivals
// only, in a label-setting pass over arrival-time buckets of its own.
// Scheduler is the general closure-based engine; nothing outside tests
// calls it, and it is kept as the reference implementation that pass is
// checked against, one event per directed edge. Determinism is a hard
// requirement for reproducing the paper's figures: in both schedulers, two
// events scheduled for the same instant always fire in the order they were
// scheduled.
package des

import (
	"container/heap"
	"fmt"
	"time"
)

// Scheduler is a discrete-event scheduler. The zero value is ready to use,
// starting at virtual time zero.
type Scheduler struct {
	now    time.Duration
	queue  eventHeap
	nextID uint64
}

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Pending returns the number of events waiting to fire.
func (s *Scheduler) Pending() int { return len(s.queue) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is a programming error and is reported rather than silently reordered.
func (s *Scheduler) At(t time.Duration, fn func()) error {
	if t < s.now {
		return fmt.Errorf("des: schedule at %v before now %v", t, s.now)
	}
	if fn == nil {
		return fmt.Errorf("des: nil event function")
	}
	heap.Push(&s.queue, event{at: t, seq: s.nextID, fn: fn})
	s.nextID++
	return nil
}

// After schedules fn to run d after the current virtual time. Negative
// delays are rejected.
func (s *Scheduler) After(d time.Duration, fn func()) error {
	if d < 0 {
		return fmt.Errorf("des: negative delay %v", d)
	}
	return s.At(s.now+d, fn)
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event fired.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(event)
	s.now = e.at
	e.fn()
	return true
}

// Run fires events until none remain.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil fires all events with timestamp <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay pending.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Reset discards pending events and rewinds the clock to zero, allowing a
// Scheduler (and the allocations backing its heap) to be reused across
// simulation runs.
func (s *Scheduler) Reset() {
	s.now = 0
	s.queue = s.queue[:0]
	s.nextID = 0
}

// Delivery is one typed broadcast event: at virtual time At, the block
// announcement crossing some directed edge reaches Node in adjacency slot
// Slot (the sender's position in Node's neighbor row). Node and Slot are
// int32 so a heap entry is three words.
type Delivery struct {
	At   time.Duration
	Node int32
	Slot int32
}

// deliveryItem is a heap entry: a Delivery plus the insertion sequence
// number that breaks timestamp ties FIFO.
type deliveryItem struct {
	at   time.Duration
	seq  uint64
	node int32
	slot int32
}

// less orders items by (timestamp, insertion order).
func (a deliveryItem) less(b deliveryItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// DeliveryQueue is a binary min-heap of Delivery events with FIFO
// tie-breaking, specialized for a caller-owned pop loop: no closures, no
// interfaces, no per-event allocations once the backing array has grown to
// the broadcast's high-water mark. The zero value is ready to use. It is
// not safe for concurrent use.
type DeliveryQueue struct {
	items []deliveryItem
	seq   uint64
}

// Len returns the number of pending deliveries.
func (q *DeliveryQueue) Len() int { return len(q.items) }

// Push schedules a delivery. Unlike Scheduler.At, no monotonicity check is
// performed: the caller (which owns the pop loop and therefore the clock)
// is responsible for never scheduling into its own past.
func (q *DeliveryQueue) Push(d Delivery) {
	q.items = append(q.items, deliveryItem{at: d.At, seq: q.seq, node: d.Node, slot: d.Slot})
	q.seq++
	items := q.items
	i := len(items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !items[i].less(items[p]) {
			break
		}
		items[p], items[i] = items[i], items[p]
		i = p
	}
}

// PeekMin returns the earliest pending delivery without removing it. It
// must not be called on an empty queue.
func (q *DeliveryQueue) PeekMin() Delivery {
	top := q.items[0]
	return Delivery{At: top.at, Node: top.node, Slot: top.slot}
}

// PopMin removes and returns the earliest pending delivery (FIFO among
// equal timestamps). It must not be called on an empty queue.
func (q *DeliveryQueue) PopMin() Delivery {
	items := q.items
	top := items[0]
	last := len(items) - 1
	items[0] = items[last]
	q.items = items[:last]
	items = q.items
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && items[l].less(items[smallest]) {
			smallest = l
		}
		if r < last && items[r].less(items[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		items[i], items[smallest] = items[smallest], items[i]
		i = smallest
	}
	return Delivery{At: top.at, Node: top.node, Slot: top.slot}
}

// Reset discards pending deliveries and the tie-break counter, keeping the
// backing array for reuse across broadcasts.
func (q *DeliveryQueue) Reset() {
	q.items = q.items[:0]
	q.seq = 0
}
