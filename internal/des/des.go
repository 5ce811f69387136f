// Package des holds DeliveryQueue, a deterministic discrete-event queue of
// typed block deliveries: events are plain {time, node, slot} records popped
// in a loop by the caller, so scheduling an event costs one append into a
// flat heap instead of a closure allocation plus container/heap interface
// boxing. No simulation uses it: its one non-test user is the benchmark's
// des.queue_ns_per_op, which times it directly, and the workload engine's
// tests keep a global DeliveryQueue replay of block deliveries as the
// reference its per-node inboxes are checked against. netsim.Broadcaster
// orders first arrivals only, in a label-setting pass over arrival-time
// buckets of its own. Two deliveries scheduled for the same instant always
// pop in the order they were pushed.
package des

import "time"

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

// Push schedules a delivery. No monotonicity check is performed: the
// caller (which owns the pop loop and therefore the clock) is responsible
// for never scheduling into its own past.
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
