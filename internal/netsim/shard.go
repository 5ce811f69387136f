package netsim

import (
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/des"
	"github.com/perigee-net/perigee/internal/parallel"
	"github.com/perigee-net/perigee/internal/stats"
)

// ShardedBroadcaster runs one broadcast as a conservative windowed parallel
// discrete-event simulation: the nodes are partitioned into contiguous
// shards, each shard owns a private des.DeliveryQueue holding only
// deliveries to its own nodes, and the shards advance in lockstep windows
// of width L = the minimum cross-shard edge delay (the classic conservative
// lookahead). Within a window [T, T+L) every shard drains its queue
// independently — any delivery it generates for a foreign shard lands at
// ≥ T+L (the link alone costs ≥ L), so it is batched in a per-shard outbox
// and merged into the destination queues at the window barrier.
//
// The result is bit-for-bit identical to Broadcaster.Broadcast at any shard
// and worker count: a node's first-arrival time is the minimum over its
// incoming deliveries, its forwarding departure depends only on that
// minimum, and per-edge arrivals are min-folds — none of which depend on
// the order equal-time deliveries are popped in. A topology whose minimum
// cross-shard delay is zero admits no conservative window; the broadcaster
// then falls back to a single shard (still correct, just not parallel).
//
// A ShardedBroadcaster is not safe for concurrent use; it owns its worker
// fan-out internally. Like Broadcaster, it survives Simulator.Reconfigure
// by resynchronizing (including the shard partition and lookahead) on the
// next Broadcast.
type ShardedBroadcaster struct {
	sim     *Simulator
	gen     uint64
	shards  int // requested shard count (≥ 2)
	workers int // worker bound for the per-window fan-out; ≤ 0 means all cores

	// Synced per topology generation.
	eff       int           // effective shard count after clamping/fallback
	lookahead time.Duration // min cross-shard edge delay (the window width)
	shardOf   []int32       // node -> owning shard
	queues    []des.DeliveryQueue
	outbox    [][]des.Delivery // per-producing-shard batched cross-shard deliveries

	// Scratch buffers, reused across Broadcast calls; Result aliases them.
	arrival     []time.Duration
	edgeFlat    []time.Duration
	edgeArrival [][]time.Duration
}

// NewShardedBroadcaster allocates a sharded broadcast context over the
// shared topology. shards is the requested partition count (≥ 2; it is
// clamped to the node count, and degenerates to a single shard when the
// topology offers no positive cross-shard lookahead). workers bounds the
// goroutines used per window (≤ 0 means one per core); results are
// identical for any value of either.
func (s *Simulator) NewShardedBroadcaster(shards, workers int) (*ShardedBroadcaster, error) {
	if shards < 2 {
		return nil, fmt.Errorf("netsim: shard count %d must be at least 2", shards)
	}
	sb := &ShardedBroadcaster{sim: s, shards: shards, workers: workers}
	sb.sync()
	return sb, nil
}

// Shards returns the effective shard count after clamping and the
// zero-lookahead fallback (1 when the current topology cannot be sharded).
func (sb *ShardedBroadcaster) Shards() int {
	if sb.gen != sb.sim.gen {
		sb.sync()
	}
	return sb.eff
}

// Lookahead returns the conservative window width: the minimum delay of any
// cross-shard edge in the current partition (0 when running single-shard).
func (sb *ShardedBroadcaster) Lookahead() time.Duration {
	if sb.gen != sb.sim.gen {
		sb.sync()
	}
	if sb.eff < 2 {
		return 0
	}
	return sb.lookahead
}

// sync recomputes the shard partition and lookahead for the simulator's
// current topology and sizes the queues and scratch buffers.
func (sb *ShardedBroadcaster) sync() {
	s := sb.sim
	sb.gen = s.gen
	n := s.n
	eff := sb.shards
	if eff > n {
		eff = n
	}
	sb.shardOf = growInt32(sb.shardOf, n)
	for v := 0; v < n; v++ {
		sb.shardOf[v] = int32(v * eff / n)
	}
	look := stats.InfDuration
	for v := int32(0); int(v) < n; v++ {
		for e := s.rowStart[v]; e < s.rowStart[v+1]; e++ {
			if sb.shardOf[s.edgeDst[e]] == sb.shardOf[v] {
				continue
			}
			if d := s.delayOf(v, e); d < look {
				look = d
			}
		}
	}
	if look <= 0 || look == stats.InfDuration {
		// A zero-delay cross-shard edge admits no conservative window, and
		// no cross-shard edges at all means the graph fits one shard anyway.
		eff = 1
		for v := range sb.shardOf {
			sb.shardOf[v] = 0
		}
	}
	sb.eff = eff
	sb.lookahead = look
	for len(sb.queues) < eff {
		sb.queues = append(sb.queues, des.DeliveryQueue{})
	}
	sb.queues = sb.queues[:eff]
	for len(sb.outbox) < eff {
		sb.outbox = append(sb.outbox, nil)
	}
	sb.outbox = sb.outbox[:eff]

	sb.arrival = growDurations(sb.arrival, n)
	edges := int(s.rowStart[n])
	sb.edgeFlat = growDurations(sb.edgeFlat, edges)
	if cap(sb.edgeArrival) < n {
		sb.edgeArrival = make([][]time.Duration, n)
	}
	sb.edgeArrival = sb.edgeArrival[:n]
	for v := 0; v < n; v++ {
		lo, hi := s.rowStart[v], s.rowStart[v+1]
		sb.edgeArrival[v] = sb.edgeFlat[lo:hi:hi]
	}
}

// Broadcast simulates flooding a block mined by source at virtual time 0
// across the shard partition. The Result aliases the ShardedBroadcaster's
// scratch exactly like Broadcaster.Broadcast's does.
func (sb *ShardedBroadcaster) Broadcast(source int) (Result, error) {
	s := sb.sim
	if sb.gen != s.gen {
		sb.sync()
	}
	if source < 0 || source >= s.n {
		return Result{}, fmt.Errorf("netsim: source %d out of range (n=%d)", source, s.n)
	}
	arrival, edgeFlat := sb.arrival, sb.edgeFlat
	for i := range arrival {
		arrival[i] = stats.InfDuration
	}
	for i := range edgeFlat {
		edgeFlat[i] = stats.InfDuration
	}
	for i := range sb.queues {
		sb.queues[i].Reset()
	}
	for i := range sb.outbox {
		sb.outbox[i] = sb.outbox[i][:0]
	}
	arrival[source] = 0
	// Seed sequentially: the source's announcements go straight into their
	// destination shards' queues.
	sb.seed(int32(source))

	workers := parallel.Workers(sb.workers)
	if workers > sb.eff {
		workers = sb.eff
	}
	for {
		tmin := stats.InfDuration
		for i := range sb.queues {
			if sb.queues[i].Len() > 0 {
				if at := sb.queues[i].PeekMin().At; at < tmin {
					tmin = at
				}
			}
		}
		if tmin == stats.InfDuration {
			return Result{Source: source, Arrival: arrival, EdgeArrival: sb.edgeArrival}, nil
		}
		limit := stats.InfDuration
		if sb.eff > 1 {
			limit = tmin + sb.lookahead
		}
		// Shards only touch state they own within the window: their queue,
		// their outbox, and the arrival/edge slots of their own nodes.
		if err := parallel.ForEachIndexed(sb.eff, workers, func(_, sh int) error {
			sb.runShard(sh, limit)
			return nil
		}); err != nil {
			return Result{}, err
		}
		// Window barrier: route the batched cross-shard deliveries (all of
		// which land at ≥ limit) into their destination queues. The merge
		// order is fixed (by producing shard, then production order), so
		// queue contents — and with them the whole run — are independent of
		// worker scheduling.
		for from := range sb.outbox {
			for _, d := range sb.outbox[from] {
				sb.queues[sb.shardOf[d.Node]].Push(d)
			}
			sb.outbox[from] = sb.outbox[from][:0]
		}
	}
}

// seed schedules the source's announcements directly into the destination
// shards' queues (runs before any parallel window, so cross-shard pushes
// are safe here).
func (sb *ShardedBroadcaster) seed(v int32) {
	s := sb.sim
	var interval time.Duration
	if s.cfg.SendInterval != nil {
		interval = s.cfg.SendInterval[v]
	}
	depart := time.Duration(0)
	for e := s.rowStart[v]; e < s.rowStart[v+1]; e++ {
		d := des.Delivery{At: depart + s.delayOf(v, e), Node: s.edgeDst[e], Slot: s.edgeSlot[e]}
		sb.queues[sb.shardOf[d.Node]].Push(d)
		depart += interval
	}
}

// runShard drains shard sh's queue up to (excluding) limit: each delivery
// is recorded in its node's neighbor slot, a node's first delivery triggers
// its forwarding, and generated deliveries go to the own queue (same shard)
// or the outbox (foreign shard, necessarily at ≥ limit).
func (sb *ShardedBroadcaster) runShard(sh int, limit time.Duration) {
	s := sb.sim
	q := &sb.queues[sh]
	silent, fwd, relay := s.cfg.Silent, s.cfg.Forward, s.cfg.RelayDelay
	for q.Len() > 0 && q.PeekMin().At < limit {
		d := q.PopMin()
		idx := s.rowStart[d.Node] + d.Slot
		if sb.edgeFlat[idx] > d.At {
			sb.edgeFlat[idx] = d.At
		}
		if sb.arrival[d.Node] == stats.InfDuration {
			sb.arrival[d.Node] = d.At
			if silent == nil || !silent[d.Node] {
				depart := d.At + fwd[d.Node]
				if relay != nil {
					depart += relay[d.Node]
				}
				sb.forwardShard(d.Node, depart, sh)
			}
		}
	}
}

// forwardShard schedules v's announcements to all its neighbors starting at
// time at, splitting them between shard sh's own queue and its outbox.
func (sb *ShardedBroadcaster) forwardShard(v int32, at time.Duration, sh int) {
	s := sb.sim
	var interval time.Duration
	if s.cfg.SendInterval != nil {
		interval = s.cfg.SendInterval[v]
	}
	depart := at
	for e := s.rowStart[v]; e < s.rowStart[v+1]; e++ {
		d := des.Delivery{At: depart + s.delayOf(v, e), Node: s.edgeDst[e], Slot: s.edgeSlot[e]}
		if int(sb.shardOf[d.Node]) == sh {
			sb.queues[sh].Push(d)
		} else {
			sb.outbox[sh] = append(sb.outbox[sh], d)
		}
		depart += interval
	}
}
