package core

import (
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/netsim"
	"github.com/perigee-net/perigee/internal/parallel"
)

// TimedRound is the engine's one round driver: the caller owns the
// schedule — how many blocks the round carries and which miners produced
// them — the engine contributes its broadcast fabric and per-neighbor
// measurement, and the selector update fires when the caller says the round
// is over. The continuous-time workload engine drives it from a clock;
// Step drives it with RoundBlocks sources drawn from the engine stream.
//
// The sequence is Begin → BroadcastAll → Finish.
type TimedRound struct {
	e      *Engine
	sim    *netsim.Simulator
	blocks int
	window int
	sent   bool
	// harvested records that every observation row was written, which a
	// successful BroadcastAll does; Finish censors the rows otherwise.
	harvested bool
	done      bool

	// BroadcastAll's arguments while it runs.
	sources  []int
	arrivals [][]time.Duration
}

// BeginTimedRound opens a timed round that will carry `blocks` blocks. Only
// the last min(blocks, ObservationWindow) of them feed the selector. The
// round holds the engine's start-of-round topology; the caller must not
// mutate connections until Finish returns.
func BeginTimedRound(e *Engine, blocks int) (*TimedRound, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("core: timed round needs at least one block, got %d", blocks)
	}
	sim, err := e.ensureSim()
	if err != nil {
		return nil, err
	}
	window := blocks
	if e.obsWindow > 0 && e.obsWindow < window {
		window = e.obsWindow
	}
	t := &TimedRound{e: e, sim: sim, blocks: blocks, window: window}
	if err := t.prepare(); err != nil {
		return nil, err
	}
	return t, nil
}

// prepareChunk is how many nodes one item of prepare's parallel pass
// covers; a network of up to this many nodes is prepared serially.
const prepareChunk = 512

// prepare snapshots every node's outgoing set, writes the harvest's hop row
// for each outgoing neighbor, and reshapes the observation matrices to
// `window` block rows. Every node's rows are carved from slabs the engine
// keeps, node after node in one layout: its outgoing snapshot and hop row
// from the inbound tables' outs and hops, which its observations'
// Neighbors alias, and its matrix's cells and row headers from cellSlab
// and rowSlab. A slab is sized exactly at first, grows with headroom after
// (see growCap), and is otherwise reused, so a prepare allocates nothing
// per node. The matrices are not filled: the round's harvest writes every
// cell, and a round finished without broadcasts censors them itself. The
// per-node pass runs on the worker pool in chunks of nodes, each writing
// only its own nodes' rows.
func (t *TimedRound) prepare() error {
	e := t.e
	n := e.table.N()
	rs := &e.scratch
	in := &rs.in
	in.sim = t.sim
	grow(&rs.obs, n)
	grow(&in.start, n+1)
	in.start[0] = 0
	for v := 0; v < n; v++ {
		in.start[v+1] = in.start[v] + e.table.OutDegree(v)
	}
	edges := in.start[n]
	cells, rows := edges*t.window, n*t.window
	grow(&in.outs, edges)
	grow(&in.hops, edges)
	if cap(rs.cellSlab) < cells || cap(rs.rowSlab) < rows {
		// The matrices alias both slabs, and the slabs are most of a small
		// network's live heap. Release them all before allocating either
		// replacement, so that a collection the allocation starts does not
		// find two generations alive.
		cellCap, rowCap := growCap(cap(rs.cellSlab), cells), growCap(cap(rs.rowSlab), rows)
		clear(rs.obs)
		rs.cellSlab, rs.rowSlab = nil, nil
		rs.cellSlab = make([]time.Duration, 0, cellCap)
		rs.rowSlab = make([][]time.Duration, 0, rowCap)
	}
	rs.cellSlab, rs.rowSlab = rs.cellSlab[:cells], rs.rowSlab[:rows]
	chunks := (n + prepareChunk - 1) / prepareChunk
	if err := parallel.ForEach(chunks, e.workerCount(chunks), t, (*TimedRound).prepareNodes); err != nil {
		return err
	}
	e.prepareCounterfactuals(t.window)
	return nil
}

// prepareNodes is prepare's per-node pass over chunk c.
func (t *TimedRound) prepareNodes(_, c int) error {
	e := t.e
	rs := &e.scratch
	in, obs, w := &rs.in, rs.obs, t.window
	for v := c * prepareChunk; v < min(len(obs), (c+1)*prepareChunk); v++ {
		lo, hi := in.start[v], in.start[v+1]
		outs := e.table.AppendOutNeighbors(in.outs[lo:lo:hi], v)
		if err := in.fillRow(v); err != nil {
			return err
		}
		obs[v].reshape(outs, w, rs.cellSlab[lo*w:hi*w:hi*w], rs.rowSlab[v*w:(v+1)*w:(v+1)*w])
	}
	return nil
}

// BroadcastAll propagates the round's blocks from their source nodes and
// harvests per-neighbor observations for the blocks inside the window, the
// round's trailing ones.
//
// sources must have one entry per block of the round. When arrivals is
// non-nil it must also have one per block; every block is then propagated
// straight into arrivals[b], grown to N where its capacity is short, which
// holds block b's per-node first-arrival time (stats.InfDuration where the
// block never arrives) and is owned by the caller afterwards. When arrivals
// is nil nobody sees the blocks before the window, so their broadcasts are
// skipped: blocks are independent given the start-of-round topology, which
// makes that bit-for-bit equal to simulating and discarding them (see
// Config.ObservationWindow).
//
// A broadcast computes first arrivals only. Each node's observation of a
// block is rebuilt from the arrival vector: a neighbor relays once, its
// Forward + RelayDelay after its own first arrival, so when its copy reached
// the node is a closed form of that arrival (see netsim.InboundHop).
// Forward, RelayDelay and Silent are read once per call, as the call's
// floods read them.
//
// Within one call the topology and those tables are fixed, so a block's
// flood is a function of its source alone: a miner that produced several of
// the call's blocks is flooded once, for its first block. Its later blocks
// are copies: the arrival vector is copied into their caller buffers, and
// the observation and counterfactual rows of its first block inside the
// window into their window rows.
//
// The copies leave every row of the observation matrices written, and
// BroadcastAll also records which window rows are distinct, each miner's
// first, and how many rows each stands for; Finish hands that list to the
// selectors.
//
// The miners fan out over the engine's worker pool, each worker owning a
// private flood queue and arrival buffer over the shared simulator, and
// block b's observations landing in the per-block rows obs[v].Offsets[b], so
// the result is bit-for-bit independent of Workers.
func (t *TimedRound) BroadcastAll(sources []int, arrivals [][]time.Duration) error {
	if t.done {
		return fmt.Errorf("core: timed round already finished")
	}
	if t.sent {
		return fmt.Errorf("core: timed round already broadcast")
	}
	if len(sources) != t.blocks {
		return fmt.Errorf("core: timed round declared %d blocks, got %d sources", t.blocks, len(sources))
	}
	if arrivals != nil && len(arrivals) != t.blocks {
		return fmt.Errorf("core: timed round declared %d blocks, got %d arrival buffers", t.blocks, len(arrivals))
	}
	e := t.e
	n := e.table.N()
	for b, src := range sources {
		if src < 0 || src >= n {
			return fmt.Errorf("core: timed round block %d source %d out of range [0,%d)", b, src, n)
		}
	}
	t.sent = true
	e.scratch.in.setCosts(e.forward, e.relayDelay, e.silent)
	t.sources, t.arrivals = sources, arrivals
	first := 0 // the first block flooded
	if arrivals == nil {
		first = t.blocks - t.window
	}
	groups := e.groupBySource(sources, first)
	workers := e.workerCount(groups)
	e.growBroadcasters(t.sim, workers)
	e.arrivalBuffers(workers)
	// A method expression over t, which lives on the heap already: the fan-out
	// allocates nothing at one worker.
	err := parallel.ForEach(groups, workers, t, (*TimedRound).broadcast)
	t.sources, t.arrivals = nil, nil
	t.harvested = err == nil
	if t.harvested {
		t.distinctRows()
	}
	return err
}

// distinctRows records in engine scratch the window's distinct rows, in
// group order: each group's first block inside the window, and how many of
// the group's blocks are inside it.
func (t *TimedRound) distinctRows() {
	rs := &t.e.scratch
	start := t.blocks - t.window
	rs.distinct, rs.weight = rs.distinct[:0], rs.weight[:0]
	for _, g := range rs.groups {
		count := int32(0)
		for b := int(g); b >= 0; b = int(rs.sameNext[b]) {
			if b < start {
				continue
			}
			if count == 0 {
				rs.distinct = append(rs.distinct, int32(b-start))
			}
			count++
		}
		if count > 0 {
			rs.weight = append(rs.weight, count)
		}
	}
}

// groupBySource groups blocks [first, len(sources)) by source and returns
// the group count. Group g's blocks are scratch.groups[g] and then, in
// ascending order, the chain through scratch.sameNext, which ends at -1;
// groups are in the order of their first blocks. The per-node index
// scratch.lastOf, one past the latest block from each source, is zero again
// when groupBySource returns.
func (e *Engine) groupBySource(sources []int, first int) int {
	rs := &e.scratch
	if rs.lastOf == nil {
		rs.lastOf = make([]int32, e.table.N())
	}
	if cap(rs.sameNext) < len(sources) {
		rs.sameNext = make([]int32, len(sources))
		rs.groups = make([]int32, 0, len(sources))
	}
	next := rs.sameNext[:len(sources)]
	groups := rs.groups[:0]
	for b := first; b < len(sources); b++ {
		src := sources[b]
		next[b] = -1
		if last := rs.lastOf[src]; last > 0 {
			next[last-1] = int32(b)
		} else {
			groups = append(groups, int32(b))
		}
		rs.lastOf[src] = int32(b) + 1
	}
	for _, b := range groups {
		rs.lastOf[sources[b]] = 0
	}
	rs.groups, rs.sameNext = groups, next
	return len(groups)
}

// broadcast floods group g's first block of BroadcastAll's call on worker's
// queue, into the caller's buffer for the block or else the worker's own,
// and hands the arrival vector to every block of the group: a copy into each
// later block's caller buffer, the harvest of the first block inside the
// window, and a copy of that block's rows into every later window row.
func (t *TimedRound) broadcast(worker, g int) error {
	e := t.e
	rs := &e.scratch
	first := int(rs.groups[g])
	dst := &rs.arrivals[worker]
	if t.arrivals != nil {
		dst = &t.arrivals[first]
	}
	src := t.sources[first]
	arrival, err := rs.bcs[worker].ArrivalInto(*dst, src)
	if err != nil {
		return err
	}
	*dst = arrival
	harvested := -1 // the window row harvested for the group
	for b := first; b >= 0; b = int(rs.sameNext[b]) {
		if t.arrivals != nil && b != first {
			t.arrivals[b] = append(t.arrivals[b][:0], arrival...)
		}
		row := b - (t.blocks - t.window)
		switch {
		case row < 0:
		case harvested < 0:
			echo := rs.in.harvest(arrival, src, row, rs.obs)
			if len(rs.cfPending) > 0 {
				e.harvestCounterfactuals(arrival, src, echo, row)
			}
			harvested = row
		default:
			copyRow(rs.obs, harvested, row)
			for _, offsets := range rs.cfOffsets[:len(rs.cfPending)] {
				offsets[row] = offsets[harvested]
			}
		}
	}
	return nil
}

// Finish closes the round: observation tampering, the synchronous selector
// update, round accounting, observer telemetry, and dynamics. Finish may be
// called without BroadcastAll (every observation is then censored, which
// selectors already handle), but calling either method after Finish is an
// error.
//
// When the window repeats a miner, every node's observations carry the
// window's distinct rows (see Observations), unless a Tamper hook is
// installed: it may edit one copy of a row and not the other.
func (t *TimedRound) Finish() (RoundReport, error) {
	if t.done {
		return RoundReport{}, fmt.Errorf("core: timed round already finished")
	}
	t.done = true
	e := t.e
	rs := &e.scratch
	obs := rs.obs[:e.table.N()]
	switch {
	case !t.harvested:
		for v := range obs {
			obs[v].censor()
		}
	case e.tamper == nil && len(rs.distinct) < t.window:
		for v := range obs {
			obs[v].distinct, obs[v].weight = rs.distinct, rs.weight
		}
	}
	return e.finishRound(obs, t.blocks)
}
