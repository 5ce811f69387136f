package workload

import (
	"math"
	"time"
)

// inboxReserve is how many in-flight deliveries each node's inbox holds in
// its share of the run's slab. A block takes a fraction of the mean block
// interval to reach everyone, so at most block rates an inbox holds zero or
// one; a node that needs more grows its own slice.
const inboxReserve = 4

// never marks an empty inbox in inboxes.next: no delivery is that late.
const never = time.Duration(math.MaxInt64)

// delivery is block id's arrival at one node.
type delivery struct {
	at time.Duration
	id int32
}

// inboxes holds the run's in-flight block deliveries, one short queue per
// node, and keeps the two orders Run's replay needs: each node's deliveries
// land in (arrival time, mining order), and drainUntil(t) before a mining
// event at t lands every delivery strictly before t and none at or after.
// Deliveries to different nodes are never ordered against each other.
type inboxes struct {
	// q[v] are v's pending deliveries, sorted by (at, id).
	q [][]delivery
	// next[v] is the arrival time of v's earliest pending delivery, or
	// never: a drain scans this one flat array.
	next    []time.Duration
	pending int
}

// newInboxes carves n empty inboxes out of one slab.
func newInboxes(n int) *inboxes {
	in := &inboxes{q: make([][]delivery, n), next: make([]time.Duration, n)}
	slab := make([]delivery, n*inboxReserve)
	for v := range in.q {
		in.q[v] = slab[v*inboxReserve : v*inboxReserve : (v+1)*inboxReserve]
		in.next[v] = never
	}
	return in
}

// push queues block id to land at node at time at. Blocks are pushed in
// mining order, so id is above every id queued: the new delivery goes
// behind every one at or before its time, which is the back of the queue
// unless it overtakes a slower, earlier-mined block.
func (in *inboxes) push(node int, at time.Duration, id int32) {
	q := append(in.q[node], delivery{})
	i := len(q) - 1
	for ; i > 0 && q[i-1].at > at; i-- {
		q[i] = q[i-1]
	}
	q[i] = delivery{at: at, id: id}
	in.q[node] = q
	if i == 0 {
		in.next[node] = at
	}
	in.pending++
}

// drainUntil lands, node by node and in each node's order, every queued
// delivery strictly before t, and shifts what is left to the front.
func (in *inboxes) drainUntil(t time.Duration, land func(node int, id int32)) {
	if in.pending == 0 {
		return
	}
	for v, at := range in.next {
		if at >= t {
			continue
		}
		q := in.q[v]
		h := 0
		for ; h < len(q) && q[h].at < t; h++ {
			land(v, q[h].id)
		}
		in.pending -= h
		q = q[:copy(q, q[h:])]
		in.q[v] = q
		in.next[v] = never
		if len(q) > 0 {
			in.next[v] = q[0].at
		}
	}
}
