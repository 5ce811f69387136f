// Package netsim simulates block broadcast over a p2p topology following
// the paper's network model (§2.1):
//
//   - when a node mines a block it immediately starts relaying it to every
//     neighbor; sending over link (u, v) takes the constant δ(u, v) from the
//     latency model;
//   - a node that receives a block validates it for Δ_v before relaying it
//     onward — to every neighbor, including the one it came from (that echo
//     is the per-neighbor timestamp Perigee scores);
//   - each directed edge therefore carries the block exactly once, and node
//     v records, for each neighbor u, the local time t(u, v) at which u's
//     copy arrived.
//
// # Flat topology layout
//
// The simulator stores the adjacency in CSR (compressed sparse row) form:
// node v's directed edges are the contiguous range rowStart[v] ..
// rowStart[v+1] of three flat arrays — edgeDst (the neighbor), edgeSlot
// (the sender's position in the neighbor's own row, i.e. the precomputed
// reverse index), and edgeDelay (the one-way latency δ, evaluated when the
// edge first appears and carried across Reconfigure for as long as the edge
// survives; see carryDelays). Only Broadcast records per-edge arrival
// times: they live in one flat buffer that Result's per-node EdgeArrival
// rows alias, so resetting a broadcast is a single linear fill. After a
// Broadcaster's buffers have grown to the topology's size, a broadcast
// performs zero heap allocations (alloc_test.go enforces this).
//
// # One label-setting pass
//
// A node relays a block exactly once, at its first arrival, so every
// per-edge timestamp is a closed form of the sender's first-arrival time:
// t(v, w) = a(v) + (Δ_v + relay_v)·[v≠src] + i·SendInterval_v + δ(v, w)
// for w the i-th neighbor of v, and v silent-and-not-the-miner or never
// reached means t(v, w) = ∞. Only first arrivals need an order. Broadcast,
// ArrivalInto and ArrivalAnalytic are therefore the same shortest-path loop
// (flood) over the flat arrays: relaying v walks its row once, evaluates δ
// once per directed edge, writes t(v, w) into w's EdgeArrival row
// (Broadcast only) and relaxes a(w); the queue carries one entry per
// successful relaxation, not one per edge. The engine's rounds record
// arrivals only: InboundHop hands them the topology-constant part of the
// closed form, δ(v, w) + i·SendInterval_v, from which a round rebuilds the
// few edge times it observes out of the arrival vector.
//
// The order comes from the network model, not from a heap. Every relay but
// the source's costs its node Forward[v] + RelayDelay[v] (Δ_v is 50 ms in
// the paper's evaluation), so along any path first arrivals lie at least
// the smallest such increment apart. The queue (floodQueue) is an array of
// buckets of width W, the largest power of two not above that increment,
// taken afresh by every flood because RelayDelay may change between two: an
// entry is appended to bucket t>>log2(W) in O(1) and buckets drain in index
// order. Whatever a node in bucket i sends arrives at least W later, in a
// later bucket, so every entry of bucket i that is current when popped is
// final, in whichever order the bucket is read: the pass sets labels, each
// node relays once, and no comparison orders anything. The source pays no
// increment; its sends may land in bucket 0 while bucket 0 drains, and the
// drain loop, which re-reads the bucket's head, takes them in turn.
//
// W has a floor of 2^20 ns (1.05 ms). A network with a smaller increment
// somewhere (a zero Forward) runs the same loop at that width, where a
// bucket may refill while it drains for any node: an entry older than its
// node's arrival is dropped, a node whose arrival improves after it
// relayed relays again and overwrites its row with the earlier times, and
// the result is the shortest-path one all the same; only the "δ once per
// edge" count can rise, by the re-relays inside one millisecond. The
// bucket array is 1024 long; entries further ahead (behind a RelayDelay of
// minutes) wait in an unordered far list, and when the array has drained
// the window restarts at the far list's earliest entry.
//
// typedsched_test.go referees the pass against an event-per-edge
// simulation on a closure-based scheduler of its own, and flood_test.go
// against the binary-heap pass it replaced, both bit for bit.
package netsim

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/stats"
)

// Config describes one simulated network instance. The adjacency is the
// undirected communication graph (outgoing ∪ incoming connections, plus any
// pinned relay edges), as topology.Table.Undirected returns it.
type Config struct {
	// Adj holds symmetric adjacency lists; Adj[v] must be ascending.
	Adj [][]int
	// Latency gives the per-link one-way delay δ(u, v).
	Latency latency.Model
	// Forward is the per-node validation/forwarding delay Δ_v applied
	// before a received block is relayed onward. The block's miner pays no
	// forwarding delay (it validated the block while mining it).
	Forward []time.Duration
	// SendInterval, if non-nil, serializes each node's uploads: when node v
	// forwards a block, its i-th neighbor (adjacency order) is sent the
	// block i*SendInterval[v] later. This models limited upload bandwidth
	// (block size / uplink rate). A nil slice means all sends start
	// simultaneously, the paper's default "small blocks" regime.
	SendInterval []time.Duration
	// Silent, if non-nil, marks free-riding nodes: they receive blocks but
	// never relay them (the protocol deviation of §1 whose punishment by
	// Perigee the incentive experiments measure). A silent source still
	// announces its own blocks.
	Silent []bool
	// RelayDelay, if non-nil, adds a per-node withholding delay on top of
	// Forward before a received block is relayed onward — the adversarial
	// "accept but forward late" behavior (a WithholdingRelay strategy), kept
	// separate from Forward so honest validation time and deliberate
	// withholding stay independently configurable. Like Forward, it does not
	// apply to a node announcing its own block. The slice is read live at
	// broadcast time, so mid-run mutation (an adversary switching behavior
	// between rounds) takes effect without rebuilding the simulator.
	RelayDelay []time.Duration
	// LatencyMode selects how edge delays are evaluated: kept in a per-edge
	// array (fast, O(E) memory; an edge's delay is computed when the edge
	// appears and carried across Reconfigure while it lives) or streamed
	// from the model per event (O(1) latency memory, for million-node
	// runs). The zero value (latency.Auto) picks by network size. Delays
	// are bit-for-bit identical in every mode.
	LatencyMode latency.Mode
}

// Simulator holds the immutable-between-reconfigurations topology of one
// simulated network in CSR form (see the package comment) plus the
// latency/forward/silent tables. A Simulator carries no per-broadcast
// state, so a single instance may be shared by any number of goroutines,
// each running broadcasts through its own Broadcaster (see NewBroadcaster).
// Reconfigure, however, must not run concurrently with any use.
type Simulator struct {
	cfg Config
	n   int

	// CSR topology: node v's directed edges occupy rowStart[v] ..
	// rowStart[v+1] of the edge arrays.
	rowStart  []int32
	edgeDst   []int32
	edgeSlot  []int32         // sender's position in edgeDst[e]'s row (reverse index)
	edgeDelay []time.Duration // empty in streaming mode; see delayOf
	cursor    []int32         // rebuild's per-node sweep cursor, kept to avoid realloc

	// The previous topology's rows and delays, which rebuild swaps with the
	// current buffers so that carryDelays can copy the delay of every edge
	// that survives a Reconfigure. They hold a complete topology only
	// while carry is set: a failed rebuild and ForgetDelays clear it, and
	// the next rebuild then evaluates every edge.
	prevRowStart  []int32
	prevEdgeDst   []int32
	prevEdgeDelay []time.Duration
	carry         bool

	// streaming records the resolved latency mode: when set, edgeDelay is
	// not materialized and every hot-path read asks the latency model
	// directly (Model.Delay must then be safe for concurrent use, which the
	// deterministic geographic model is — it only reads immutable tables).
	streaming bool

	// gen counts Reconfigure calls; Broadcasters lazily resynchronize
	// their scratch when they observe a new generation.
	gen uint64

	// base serves the convenience Broadcast method, created on first use
	// (parallel callers go through NewBroadcaster and never pay for it).
	// The once-guarded atomic pointer keeps a concurrent misuse of the
	// documented single-goroutine convenience API from corrupting memory
	// during initialization.
	baseOnce sync.Once
	base     atomic.Pointer[Broadcaster]
}

// Broadcaster owns the mutable per-broadcast state (first-arrival queue and
// arrival scratch) for one goroutine's floods over a shared Simulator.
// A Broadcaster is not safe for concurrent use; create one per worker.
// Broadcasters survive Simulator.Reconfigure: they resize their scratch on
// the next Broadcast.
type Broadcaster struct {
	sim   *Simulator
	gen   uint64
	queue floodQueue

	// Scratch buffers, reused across Broadcast calls; Result aliases them.
	// edgeArrival's per-node rows alias the flat edgeFlat buffer through
	// the simulator's rowStart index.
	arrival     []time.Duration
	edgeFlat    []time.Duration
	edgeArrival [][]time.Duration
}

// New validates the config and builds a simulator. The adjacency must be
// symmetric, self-loop free, ascending, and within range.
func New(cfg Config) (*Simulator, error) {
	if err := validateShape(cfg); err != nil {
		return nil, err
	}
	n := len(cfg.Adj)
	for u, nbrs := range cfg.Adj {
		if !sort.IntsAreSorted(nbrs) {
			return nil, fmt.Errorf("netsim: adjacency of node %d is not ascending", u)
		}
		for i, v := range nbrs {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("netsim: node %d lists out-of-range neighbor %d", u, v)
			}
			if v == u {
				return nil, fmt.Errorf("netsim: node %d lists itself", u)
			}
			if i > 0 && nbrs[i-1] == v {
				return nil, fmt.Errorf("netsim: node %d lists neighbor %d twice", u, v)
			}
		}
	}
	s := &Simulator{cfg: cfg, n: n}
	if err := s.rebuild(cfg.Adj); err != nil {
		return nil, err
	}
	return s, nil
}

// validateShape checks everything that is O(n) and independent of the edge
// structure: table lengths, non-negative delays, model coverage.
func validateShape(cfg Config) error {
	n := len(cfg.Adj)
	if n == 0 {
		return fmt.Errorf("netsim: empty adjacency")
	}
	if cfg.Latency == nil {
		return fmt.Errorf("netsim: nil latency model")
	}
	if cfg.Latency.N() < n {
		return fmt.Errorf("netsim: latency model covers %d nodes, topology has %d", cfg.Latency.N(), n)
	}
	if len(cfg.Forward) != n {
		return fmt.Errorf("netsim: forward delays cover %d nodes, want %d", len(cfg.Forward), n)
	}
	for v, d := range cfg.Forward {
		if d < 0 {
			return fmt.Errorf("netsim: node %d has negative forward delay %v", v, d)
		}
	}
	if cfg.SendInterval != nil {
		if len(cfg.SendInterval) != n {
			return fmt.Errorf("netsim: send intervals cover %d nodes, want %d", len(cfg.SendInterval), n)
		}
		for v, d := range cfg.SendInterval {
			if d < 0 {
				return fmt.Errorf("netsim: node %d has negative send interval %v", v, d)
			}
		}
	}
	if cfg.Silent != nil && len(cfg.Silent) != n {
		return fmt.Errorf("netsim: silent mask covers %d nodes, want %d", len(cfg.Silent), n)
	}
	if cfg.RelayDelay != nil {
		if len(cfg.RelayDelay) != n {
			return fmt.Errorf("netsim: relay delays cover %d nodes, want %d", len(cfg.RelayDelay), n)
		}
		for v, d := range cfg.RelayDelay {
			if d < 0 {
				return fmt.Errorf("netsim: node %d has negative relay delay %v", v, d)
			}
		}
	}
	if !cfg.LatencyMode.Valid() {
		return fmt.Errorf("netsim: invalid latency mode %d", int(cfg.LatencyMode))
	}
	return nil
}

// rebuild (re)constructs the CSR arrays from adj, reusing the backing
// arrays when they are large enough. The reverse index is computed with an
// O(E) cursor sweep: visiting sources in ascending order, source v must be
// the next unseen entry of each neighbor's (ascending) row — any mismatch
// proves the adjacency asymmetric. In precomputed mode the previous
// topology's buffers are swapped aside rather than overwritten, so the
// delays of surviving edges can be carried (see carryDelays).
func (s *Simulator) rebuild(adj [][]int) error {
	n := len(adj)
	total := 0
	for _, row := range adj {
		total += len(row)
	}
	s.cfg.Adj = adj
	s.streaming = s.cfg.LatencyMode.Resolve(n) == latency.Streaming
	carry := s.carry
	s.carry = false
	if !s.streaming {
		s.rowStart, s.prevRowStart = s.prevRowStart, s.rowStart
		s.edgeDst, s.prevEdgeDst = s.prevEdgeDst, s.edgeDst
		s.edgeDelay, s.prevEdgeDelay = s.prevEdgeDelay, s.edgeDelay
		s.edgeDelay = growDurations(s.edgeDelay, total)
	}
	s.rowStart = growInt32(s.rowStart, n+1)
	s.edgeDst = growInt32(s.edgeDst, total)
	s.edgeSlot = growInt32(s.edgeSlot, total)
	pos := int32(0)
	for v, row := range adj {
		s.rowStart[v] = pos
		for _, w := range row {
			s.edgeDst[pos] = int32(w)
			pos++
		}
	}
	s.rowStart[n] = pos
	s.cursor = growInt32(s.cursor, n)
	for i := range s.cursor {
		s.cursor[i] = 0
	}
	for v := 0; v < n; v++ {
		for e := s.rowStart[v]; e < s.rowStart[v+1]; e++ {
			w := s.edgeDst[e]
			k := s.cursor[w]
			s.cursor[w] = k + 1
			if s.rowStart[w]+k >= s.rowStart[w+1] || s.edgeDst[s.rowStart[w]+k] != int32(v) {
				return fmt.Errorf("netsim: adjacency not symmetric: %d lists %d but not vice versa", v, w)
			}
			s.edgeSlot[e] = k
		}
	}
	if !s.streaming {
		if carry {
			s.carryDelays()
		} else if err := latency.PrecomputeEdges(s.cfg.Latency, s.rowStart, s.edgeDst, s.edgeDelay); err != nil {
			return err
		}
		s.carry = true
	}
	s.gen++
	return nil
}

// carryDelays fills edgeDelay after a rebuild over a previous topology: a
// merge walk of each node's previous and current ascending row copies the
// delay of every directed edge that survived and asks the model only for
// edges the previous topology did not have. The fill is serial because a
// round adds only a few edges per node, too few model calls to pay for a
// fan-out. It is per directed edge, in PrecomputeEdges' order, so δ(u, v) is
// never taken from δ(v, u): a model may round the two differently.
func (s *Simulator) carryDelays() {
	lat := s.cfg.Latency
	for v := 0; v < s.n; v++ {
		o, oEnd := s.prevRowStart[v], s.prevRowStart[v+1]
		for e := s.rowStart[v]; e < s.rowStart[v+1]; e++ {
			w := s.edgeDst[e]
			for o < oEnd && s.prevEdgeDst[o] < w {
				o++
			}
			if o < oEnd && s.prevEdgeDst[o] == w {
				s.edgeDelay[e] = s.prevEdgeDelay[o]
			} else {
				s.edgeDelay[e] = lat.Delay(v, int(w))
			}
		}
	}
}

// ForgetDelays drops the edge delays carried from the current topology, so
// the next Reconfigure asks the latency model for every edge again. A
// caller whose model's delays have changed must call it: the delay of an
// edge that survives a Reconfigure is otherwise not re-evaluated.
// Broadcasts before that Reconfigure still use the delays already held.
func (s *Simulator) ForgetDelays() { s.carry = false }

// delayOf returns the one-way delay of directed edge e leaving node v. In
// precomputed mode it is an array read; in streaming mode the latency model
// is evaluated on the spot. Both paths yield bit-for-bit identical values
// because PrecomputeEdges stores exactly Model.Delay's results.
func (s *Simulator) delayOf(v, e int32) time.Duration {
	if s.streaming {
		return s.cfg.Latency.Delay(int(v), int(s.edgeDst[e]))
	}
	return s.edgeDelay[e]
}

// Streaming reports whether the simulator resolved to the streaming latency
// mode (no per-edge delay array; see latency.Mode).
func (s *Simulator) Streaming() bool { return s.streaming }

// growInt32 returns a slice of length n, reusing buf's capacity if
// possible. A new array gets a quarter more than asked: a round rewires a
// quarter of the out-edges and the directed-edge total drifts, so buffers
// sized exactly would be reallocated at every new maximum.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n, n+n/4)
	}
	return buf[:n]
}

// growDurations is growInt32 for durations.
func growDurations(buf []time.Duration, n int) []time.Duration {
	if cap(buf) < n {
		return make([]time.Duration, n, n+n/4)
	}
	return buf[:n]
}

// Reconfigure replaces the simulator's topology, reusing the CSR backing
// arrays. Unlike New it trusts the adjacency to be sorted, in range and
// self-loop free, as a topology.Table snapshot is by construction; symmetry
// is still verified by the reverse-index build. The node count must not
// change, so the latency/forward/silent tables stay valid. Reconfigure must
// not run concurrently with any Broadcast or ArrivalAnalytic call; existing
// Broadcasters resynchronize automatically on their next Broadcast.
//
// In precomputed mode a directed edge present both before and after keeps
// the delay it had; Model.Delay is called only for edges the previous
// topology lacked. A model whose delays change must therefore invalidate
// with ForgetDelays; surviving edges are otherwise not re-evaluated. A
// Reconfigure that fails carries nothing into the next one.
func (s *Simulator) Reconfigure(adj [][]int) error {
	if len(adj) != s.n {
		s.ForgetDelays()
		return fmt.Errorf("netsim: reconfigure with %d nodes, simulator has %d", len(adj), s.n)
	}
	return s.rebuild(adj)
}

// Adj returns the adjacency the simulator currently runs on. The rows
// alias the caller-provided config adjacency, not the CSR arrays.
func (s *Simulator) Adj() [][]int { return s.cfg.Adj }

// Row returns v's neighbor row of the CSR layout (ascending node IDs).
// Row(v)[i] is the neighbor whose arrival lands in EdgeArrival[v][i].
// Callers must not mutate the returned slice.
func (s *Simulator) Row(v int) []int32 { return s.edgeDst[s.rowStart[v]:s.rowStart[v+1]] }

// InboundHop returns the part of "v's k-th neighbor u relays a block to v"
// that the topology fixes: δ(u, v) plus v's position in u's row times
// SendInterval[u]. A relay that leaves u at d — u's first arrival plus
// Forward[u] + RelayDelay[u], or 0 when u mined the block — reaches v at
// d + InboundHop(v, k), which is what Broadcast records in EdgeArrival[v][k].
func (s *Simulator) InboundHop(v, k int) time.Duration {
	e := s.rowStart[v] + int32(k)
	u, i := s.edgeDst[e], s.edgeSlot[e]
	d := s.delayOf(u, s.rowStart[u]+i)
	if s.cfg.SendInterval != nil {
		d += time.Duration(i) * s.cfg.SendInterval[u]
	}
	return d
}

// NewBroadcaster allocates an independent broadcast context over the shared
// topology. Broadcasters are independent of one another: any number may run
// Broadcast concurrently on the same Simulator, one per goroutine. Its
// scratch is sized by the first Broadcast; a Broadcaster that only runs
// ArrivalInto never sizes an edge-length buffer.
func (s *Simulator) NewBroadcaster() *Broadcaster { return &Broadcaster{sim: s} }

// sync sizes the scratch buffers to the simulator's current topology and
// re-aliases the per-node EdgeArrival rows over the flat buffer.
func (b *Broadcaster) sync() {
	s := b.sim
	b.gen = s.gen
	b.arrival = growDurations(b.arrival, s.n)
	edges := int(s.rowStart[s.n])
	b.edgeFlat = growDurations(b.edgeFlat, edges)
	if cap(b.edgeArrival) < s.n {
		b.edgeArrival = make([][]time.Duration, s.n)
	}
	b.edgeArrival = b.edgeArrival[:s.n]
	for v := 0; v < s.n; v++ {
		lo, hi := s.rowStart[v], s.rowStart[v+1]
		b.edgeArrival[v] = b.edgeFlat[lo:hi:hi]
	}
}

// Result is the outcome of one broadcast. Its slices alias the owning
// Broadcaster's scratch buffers: they are valid until that Broadcaster's
// next Broadcast call. Callers that need to keep them must copy.
type Result struct {
	// Source is the mining node.
	Source int
	// Arrival[v] is the first time v held the block (InfDuration when the
	// block never reached v). Arrival[Source] is 0.
	Arrival []time.Duration
	// EdgeArrival[v][i] is when neighbor Adj[v][i]'s announcement of the
	// block reached v, or InfDuration if that neighbor never relayed it.
	// All rows alias one flat per-edge buffer.
	EdgeArrival [][]time.Duration
}

// Broadcast simulates flooding a block mined by source at virtual time 0,
// using the Simulator's built-in Broadcaster (created lazily here). It is
// a convenience for single-goroutine callers; concurrent broadcasts must
// go through separate NewBroadcaster contexts.
func (s *Simulator) Broadcast(source int) (Result, error) {
	b := s.base.Load()
	if b == nil {
		s.baseOnce.Do(func() { s.base.Store(s.NewBroadcaster()) })
		b = s.base.Load()
	}
	return b.Broadcast(source)
}

// Broadcast simulates flooding a block mined by source at virtual time 0.
// Once the Broadcaster's buffers have grown to the topology's size, it
// performs no heap allocations.
func (b *Broadcaster) Broadcast(source int) (Result, error) {
	s := b.sim
	if b.gen != s.gen {
		b.sync()
	}
	if source < 0 || source >= s.n {
		return Result{}, fmt.Errorf("netsim: source %d out of range (n=%d)", source, s.n)
	}
	s.flood(int32(source), &b.queue, b.arrival, b.edgeFlat)
	return Result{Source: source, Arrival: b.arrival, EdgeArrival: b.edgeArrival}, nil
}

// ArrivalInto is Broadcast's first-arrival vector alone, written into dst
// (grown to N when its capacity is short, and returned) through b's own
// queue. It records no edge, so a caller that needs when a neighbor's copy
// reached a node derives it from the sender's arrival (see InboundHop).
// Once dst and the queue are warm it performs no heap allocations.
func (b *Broadcaster) ArrivalInto(dst []time.Duration, source int) ([]time.Duration, error) {
	return b.sim.arrivalInto(&b.queue, dst, source)
}

// arrivalInto is the arrival-only flood behind ArrivalInto and
// ArrivalAnalyticInto, on queue q.
func (s *Simulator) arrivalInto(q *floodQueue, dst []time.Duration, source int) ([]time.Duration, error) {
	if source < 0 || source >= s.n {
		return nil, fmt.Errorf("netsim: source %d out of range (n=%d)", source, s.n)
	}
	arrival := growDurations(dst, s.n)
	s.flood(int32(source), q, arrival, nil)
	return arrival, nil
}

// floodItem is one entry of the flood's bucket queue: node v is tentatively
// first reached at d. next links the entries that share a bucket.
type floodItem struct {
	d    time.Duration
	v    int32
	next int32
}

const (
	// floodMinShift floors the bucket width at 2^20 ns (1.05 ms) for
	// networks where some relay increment is smaller, or zero.
	floodMinShift = 20
	// floodBuckets bounds the bucket array whatever the spread of arrival
	// times (a RelayDelay of minutes against a width of 33.5 ms): entries
	// floodBuckets widths or more past the window's start wait, unordered,
	// in the far list, which is bucket floodBuckets.
	floodBuckets = 1024
)

// floodQueue is the monotone bucket queue that orders the flood's first
// arrivals (see the package comment): bucket i holds the entries with
// d>>shift == base+i as a linked list through items, which only grows
// during a flood and is reused by the next one.
type floodQueue struct {
	items []floodItem
	heads [floodBuckets + 1]int32 // first entry of each bucket, -1 when empty
	tails [floodBuckets + 1]int32 // last entry; meaningful while heads[b] >= 0
	shift uint
	base  int64 // d>>shift of bucket 0
	live  int   // entries pushed and not yet popped
}

// floodQueuePool serves ArrivalAnalyticInto, which has no Broadcaster to
// keep a queue in: repeated λ_v evaluations (once per node per evaluation
// pass, from many goroutines) allocate nothing once warm.
var floodQueuePool = sync.Pool{New: func() any { return new(floodQueue) }}

// reset empties the queue for a flood whose smallest relay increment is
// minRelay: the bucket width is the largest power of two not above it.
func (q *floodQueue) reset(minRelay time.Duration) {
	q.items = q.items[:0]
	for i := range q.heads {
		q.heads[i] = -1
	}
	q.shift = uint(max(floodMinShift, bits.Len64(uint64(minRelay))-1))
	q.base, q.live = 0, 0
}

func (q *floodQueue) push(d time.Duration, v int32) {
	q.items = append(q.items, floodItem{d: d, v: v, next: -1})
	q.link(int32(len(q.items)-1), d)
	q.live++
}

// link appends items[i], whose time is d and which has no successor, to its
// bucket's list. Arrival times only grow as the flood advances, so d>>shift
// is never below base. First in, first out matters only to a bucket that
// refills while it drains: its corrections then spread breadth-first, which
// keeps repeated relays few.
func (q *floodQueue) link(i int32, d time.Duration) {
	b := min(int64(d>>q.shift)-q.base, floodBuckets)
	if q.heads[b] < 0 {
		q.heads[b] = i
	} else {
		q.items[q.tails[b]].next = i
	}
	q.tails[b] = i
}

// rebase, called once every near bucket has drained, restarts the window at
// the earliest entry of the far list and deals the list out again.
func (q *floodQueue) rebase() {
	far := q.heads[floodBuckets]
	q.heads[floodBuckets] = -1
	first := q.items[far].d
	for i := q.items[far].next; i >= 0; i = q.items[i].next {
		first = min(first, q.items[i].d)
	}
	q.base = int64(first >> q.shift)
	for i := far; i >= 0; {
		it := &q.items[i]
		next := it.next
		it.next = -1
		q.link(i, it.d)
		i = next
	}
}

// flood is the pass behind Broadcast, ArrivalInto and ArrivalAnalytic (see
// the package comment): it fills arrival with every node's first-arrival
// time of a block mined by source at time 0 and, when edgeFlat is non-nil,
// edgeFlat with every directed edge's delivery time. An entry popped at its
// node's current arrival time relays. Where every relay adds at least a
// bucket's width that time is final: each node relays once and each
// directed edge's δ is evaluated exactly once, which matters in streaming
// mode, where it costs two hashes. On the width's floor a node whose
// arrival improves after it relayed relays again, overwriting what it wrote
// with earlier times, so the result is the same.
//
// A relay that records no edge and reads precomputed delays walks its row's
// neighbors and delays as two slices, with nothing in the inner loop but
// the relaxation; the others take the per-edge loop, chosen once per relay.
func (s *Simulator) flood(source int32, q *floodQueue, arrival, edgeFlat []time.Duration) {
	for i := range arrival {
		arrival[i] = stats.InfDuration
	}
	for i := range edgeFlat {
		edgeFlat[i] = stats.InfDuration
	}
	silent, fwd, relay, intervals := s.cfg.Silent, s.cfg.Forward, s.cfg.RelayDelay, s.cfg.SendInterval
	rowStart, edgeDst, edgeSlot, edgeDelay := s.rowStart, s.edgeDst, s.edgeSlot, s.edgeDelay
	lean := edgeFlat == nil && !s.streaming
	// RelayDelay is read live, so the width is this flood's own.
	minRelay := stats.InfDuration
	for v, d := range fwd {
		if relay != nil {
			d += relay[v]
		}
		minRelay = min(minRelay, d)
	}
	q.reset(minRelay)
	arrival[source] = 0
	q.push(0, source)
	for b := 0; q.live > 0; b++ {
		if b == floodBuckets {
			q.rebase()
			b = 0
		}
		// Re-reading the head picks up what this bucket's own entries push
		// into it: the source's sends (it pays no relay delay) and, on the
		// width's floor, any node's.
		for i := q.heads[b]; i >= 0; i = q.heads[b] {
			it := q.items[i]
			q.heads[b] = it.next
			q.live--
			v := it.v
			if it.d > arrival[v] {
				continue // superseded by an earlier relaxation of v
			}
			depart := it.d
			if v != source {
				// A silent node relays nothing, but a silent miner still
				// announces its own block; the miner also pays no validation or
				// withholding delay.
				if silent != nil && silent[v] {
					continue
				}
				depart += fwd[v]
				if relay != nil {
					depart += relay[v]
				}
			}
			var interval time.Duration
			if intervals != nil {
				interval = intervals[v]
			}
			lo, hi := rowStart[v], rowStart[v+1]
			if lean {
				dsts := edgeDst[lo:hi]
				delays := edgeDelay[lo:hi]
				delays = delays[:len(dsts)]
				for j, w := range dsts {
					t := depart + delays[j]
					depart += interval
					if t < arrival[w] {
						arrival[w] = t
						q.push(t, w)
					}
				}
				continue
			}
			for e := lo; e < hi; e++ {
				w := edgeDst[e]
				t := depart + s.delayOf(v, e)
				depart += interval
				if edgeFlat != nil {
					edgeFlat[rowStart[w]+edgeSlot[e]] = t
				}
				if t < arrival[w] {
					arrival[w] = t
					q.push(t, w)
				}
			}
		}
	}
}

// ArrivalAnalytic computes Broadcast's first-arrival vector alone, without
// the per-edge bookkeeping. It is safe to call concurrently from multiple
// goroutines on a shared Simulator.
func (s *Simulator) ArrivalAnalytic(source int) ([]time.Duration, error) {
	return s.ArrivalAnalyticInto(nil, source)
}

// ArrivalAnalyticInto is ArrivalAnalytic writing into dst (reused when its
// capacity suffices, so steady-state callers allocate nothing — the queue
// itself is pooled). It returns the possibly-regrown slice.
func (s *Simulator) ArrivalAnalyticInto(dst []time.Duration, source int) ([]time.Duration, error) {
	q := floodQueuePool.Get().(*floodQueue)
	defer floodQueuePool.Put(q)
	return s.arrivalInto(q, dst, source)
}

// arrivalSorter sorts a reusable index slice by arrival time. It implements
// sort.Interface so sorting needs no per-call closure allocation; instances
// are pooled because DelayToFraction runs once per broadcast per evaluation
// pass, from many goroutines at once.
type arrivalSorter struct {
	idx     []int
	arrival []time.Duration
}

func (s *arrivalSorter) Len() int           { return len(s.idx) }
func (s *arrivalSorter) Less(a, b int) bool { return s.arrival[s.idx[a]] < s.arrival[s.idx[b]] }
func (s *arrivalSorter) Swap(a, b int)      { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

var arrivalSorterPool = sync.Pool{New: func() any { return new(arrivalSorter) }}

// DelayToFraction returns the earliest time by which nodes holding at least
// frac of the total power have the block, given the per-node arrival
// times. The source (arrival 0) counts. If the reachable mass is below
// frac, it returns InfDuration. Safe for concurrent use.
func DelayToFraction(arrival []time.Duration, power []float64, frac float64) (time.Duration, error) {
	if len(arrival) != len(power) {
		return 0, fmt.Errorf("netsim: arrival has %d entries, power %d", len(arrival), len(power))
	}
	if frac <= 0 || frac > 1 {
		return 0, fmt.Errorf("netsim: fraction %v outside (0, 1]", frac)
	}
	var total float64
	for i, p := range power {
		if p < 0 {
			return 0, fmt.Errorf("netsim: negative power %v at node %d", p, i)
		}
		total += p
	}
	if total <= 0 {
		return 0, fmt.Errorf("netsim: zero total power")
	}
	srt := arrivalSorterPool.Get().(*arrivalSorter)
	if cap(srt.idx) < len(arrival) {
		srt.idx = make([]int, len(arrival))
	}
	srt.idx = srt.idx[:len(arrival)]
	for i := range srt.idx {
		srt.idx[i] = i
	}
	srt.arrival = arrival
	sort.Sort(srt)
	// The epsilon absorbs floating-point shortfall when frac covers the
	// whole network (e.g. frac=1 with power summing to 1-1e-16).
	const eps = 1e-9
	target := frac * total
	result := stats.InfDuration
	var acc float64
	for _, i := range srt.idx {
		if arrival[i] == stats.InfDuration {
			break
		}
		acc += power[i]
		if acc+eps >= target {
			result = arrival[i]
			break
		}
	}
	srt.arrival = nil // don't retain the caller's slice in the pool
	arrivalSorterPool.Put(srt)
	return result, nil
}

// IdealArrival returns the one-hop arrival times of a fully-connected
// network: every node receives the block directly from the source. This is
// the paper's "ideal" lower-bound baseline.
func IdealArrival(model latency.Model, source int) []time.Duration {
	n := model.N()
	out := make([]time.Duration, n)
	for v := 0; v < n; v++ {
		if v == source {
			continue
		}
		out[v] = model.Delay(source, v)
	}
	return out
}
