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
	done   bool
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
	if err := e.prepareRound(sim, window); err != nil {
		return nil, err
	}
	return &TimedRound{e: e, sim: sim, blocks: blocks, window: window}, nil
}

// Blocks returns the round's declared block count.
func (t *TimedRound) Blocks() int { return t.blocks }

// BroadcastAll propagates the round's blocks from their source nodes and
// harvests per-neighbor observations for the blocks inside the window, the
// round's trailing ones.
//
// sources must have length t.Blocks(). When arrivals is non-nil it must
// also have length t.Blocks(); every block is then propagated and
// arrivals[b] is grown to N and filled with block b's per-node arrival time
// (netsim.InfDuration where the block never arrives), owned by the caller
// afterwards. When arrivals is nil nobody sees the blocks before the
// window, so their broadcasts are skipped: blocks are independent given the
// start-of-round topology, which makes that bit-for-bit equal to simulating
// and discarding them (see Config.ObservationWindow).
//
// The blocks fan out over the engine's worker pool, each worker owning a
// private netsim.Broadcaster over the shared simulator and block b's
// observations landing in the per-block rows obs[v].Offsets[b], so the
// result is bit-for-bit independent of Workers.
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
	rs := &e.scratch
	obs, outs, slot := rs.obs[:n], rs.outs[:n], rs.slot[:n]
	skip := t.blocks - t.window
	first := 0
	if arrivals == nil {
		first = skip
	}
	run := sources[first:]

	workers := e.workerCount(len(run))
	bcs := e.broadcasters(t.sim, workers)
	return parallel.ForEachIndexed(len(run), workers, func(worker, i int) error {
		res, err := bcs[worker].Broadcast(run[i])
		if err != nil {
			return err
		}
		b := first + i
		if arrivals != nil {
			if cap(arrivals[b]) < n {
				arrivals[b] = make([]time.Duration, n)
			}
			arrivals[b] = arrivals[b][:n]
			copy(arrivals[b], res.Arrival)
		}
		if row := b - skip; row >= 0 {
			harvestObservations(res, row, obs, outs, slot)
			if len(rs.cfPending) > 0 {
				e.harvestCounterfactuals(res, row)
			}
		}
		return nil
	})
}

// Finish closes the round: observation tampering, the synchronous selector
// update, round accounting, observer telemetry, and dynamics. Finish may be
// called without BroadcastAll (every
// observation is then censored, which selectors already handle), but calling
// either method after Finish is an error.
func (t *TimedRound) Finish() (RoundReport, error) {
	if t.done {
		return RoundReport{}, fmt.Errorf("core: timed round already finished")
	}
	t.done = true
	e := t.e
	return e.finishRound(e.scratch.obs[:e.table.N()], t.blocks)
}
