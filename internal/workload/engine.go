package workload

import (
	"fmt"
	"math"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/stats"
)

// staticBatch bounds how many blocks a static-topology run broadcasts per
// netsim batch. Partitioning is invisible in the results (no topology
// update ever fires between batches and event replay order is a pure merge
// by timestamp), so the cap only bounds arrival-buffer memory.
const staticBatch = 256

// Config describes one continuous-time workload run.
type Config struct {
	// Engine is the configured Perigee engine: topology, latency model,
	// selector, and hash power. The workload drives it in timed-round
	// mode; the caller must not Step it concurrently.
	Engine *core.Engine
	// Trace is the block-production schedule. Use NewPoisson (or Gamma /
	// Weibull) for generated workloads and TraceFile.Trace for replays.
	Trace Trace
	// Duration is the simulated run length; events at or after Duration
	// are not consumed.
	Duration time.Duration
	// RoundInterval is the Perigee topology-round period: every elapsed
	// interval, the blocks mined within it become the selector's
	// observations and the engine updates connections. Zero keeps the
	// topology static for the whole run (the baseline arms).
	RoundInterval time.Duration
}

func (cfg *Config) validate() error {
	if cfg.Engine == nil {
		return fmt.Errorf("workload: nil engine")
	}
	if cfg.Trace == nil {
		return fmt.Errorf("workload: nil trace")
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("workload: duration %v must be positive", cfg.Duration)
	}
	if cfg.RoundInterval < 0 {
		return fmt.Errorf("workload: round interval %v must be non-negative", cfg.RoundInterval)
	}
	return nil
}

// Run simulates the workload over continuous time and returns the run's
// fork-economics Report.
//
// The clock is event-driven. Each topology round (or fixed-size batch when
// the topology is static) first drains the trace for the blocks mined in
// its interval and propagates them through netsim's broadcast fabric over
// the round's topology — block contents never influence propagation, so
// arrival times can be computed up front in parallel. Chain state then
// replays mining events in time order: before each one, every strictly
// earlier delivery lands (stashing blocks that beat their parents to a
// node, counting the reorgs tip switches cause), and the miner extends
// whatever its own view holds as the tip at that instant — two miners
// inside one another's propagation delay therefore extend the same parent
// and fork the chain. A miner holds its own block immediately; every other
// node receives it at mining time plus netsim's arrival delay, and nothing
// lands at or after Duration.
//
// The replay keeps two orders and no other. Each node's deliveries land in
// (arrival time, mining order) — equal-time deliveries in mining order —
// and before node m mines at t, every delivery to m strictly before t has
// landed and none at or after t has. Deliveries to different nodes are not
// ordered against each other: every chain view is per node and the
// cross-node telemetry is a sum and a max, so no global order can change
// the result. Each node therefore keeps a short inbox (inbox.go) instead of
// the run sharing one heap. Deliveries still in flight when a round ends
// land in later rounds, so a run is a pure function of (engine config,
// trace, duration, round interval) — bit-for-bit identical at any Workers
// setting.
//
// A round's replay runs beside its topology update: the replay reads only
// Run's own chain state and the round's arrival vectors, and the update
// only the engine. The replay goes to a helper goroutine, which Run joins
// before it drains the trace again; the update (TimedRound.Finish), and with
// it the engine's Observer and Dynamics, stays on the caller's goroutine.
//
// The canonical chain is one more reading of the views' block tree: the
// longest chain wins, and an equal height, exact mining-time ties included,
// goes to the first-mined block. Blocks off that chain are stale; their
// miners earn nothing.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := cfg.Engine
	n := e.N()

	c := newChainState(n)

	// One-event lookahead over the trace: batch draining must see the
	// first event beyond its boundary without losing it.
	pending, pendingOK := cfg.Trace.Next()
	lastAt := time.Duration(0)

	var batchAt []time.Duration
	var sources []int
	var arrivals [][]time.Duration
	replayed := make(chan struct{}, 1)
	rounds := 0

	for start := time.Duration(0); start < cfg.Duration && (pendingOK || c.inbox.pending > 0); {
		end := cfg.Duration
		if cfg.RoundInterval > 0 && start+cfg.RoundInterval < end {
			end = start + cfg.RoundInterval
		}

		// Drain the trace for this interval's block-production events.
		batchAt, sources = batchAt[:0], sources[:0]
		for pendingOK && pending.At < end {
			if pending.At < lastAt {
				return nil, fmt.Errorf("workload: trace time went backwards: %v after %v", pending.At, lastAt)
			}
			if pending.Miner < 0 || pending.Miner >= n {
				return nil, fmt.Errorf("workload: trace miner %d outside [0, %d)", pending.Miner, n)
			}
			lastAt = pending.At
			batchAt = append(batchAt, pending.At)
			sources = append(sources, pending.Miner)
			pending, pendingOK = cfg.Trace.Next()
			if cfg.RoundInterval == 0 && len(batchAt) == staticBatch {
				break
			}
		}

		if len(batchAt) == 0 {
			c.inbox.drainUntil(end, c.views.deliver)
			start = end
			continue
		}

		// Propagation first: arrival times for the whole batch, over this
		// round's topology, via the engine's broadcast fabric.
		tr, err := core.BeginTimedRound(e, len(batchAt))
		if err != nil {
			return nil, err
		}
		for len(arrivals) < len(batchAt) {
			arrivals = append(arrivals, nil)
		}
		batch := arrivals[:len(batchAt)]
		if err := tr.BroadcastAll(sources, batch); err != nil {
			return nil, err
		}

		if cfg.RoundInterval == 0 {
			c.replay(batchAt, sources, batch)
			if pendingOK && pending.At < end {
				continue // the static batch cap truncated this interval
			}
			start = end
			continue
		}

		// Chain state second, beside the round boundary: the interval's
		// blocks are exactly what the selector observed, so the topology
		// update fires while the helper replays them. Empty intervals never
		// reach here and skip the update — there is nothing to score.
		go func() { c.replay(batchAt, sources, batch); replayed <- struct{}{} }()
		_, err = tr.Finish()
		<-replayed
		if err != nil {
			return nil, err
		}
		rounds++
		start = end
	}
	c.inbox.drainUntil(cfg.Duration, c.views.deliver)

	return buildReport(cfg, n, e.Power(), c.views, c.minedBy, c.canon, rounds), nil
}

// chainState is Run's replay side: every node's chain view and inbox, each
// block's miner, and the canonical tip.
type chainState struct {
	views   *views
	inbox   *inboxes
	minedBy []int32
	canon   int32
}

func newChainState(n int) *chainState {
	return &chainState{
		views:   newViews(n),
		inbox:   newInboxes(n),
		minedBy: []int32{-1},
	}
}

// replay runs a batch's mining events in simulated-time order: before each
// one the deliveries strictly before it land, the miner extends its view's
// tip, and the new block is queued to every other node it reaches at mining
// time plus its arrival delay. The canonical tip moves to a new block only
// when it is strictly higher, the rule every view applies; its moves are
// not reorgs of any node.
func (c *chainState) replay(batchAt []time.Duration, sources []int, arrivals [][]time.Duration) {
	for k, at := range batchAt {
		c.inbox.drainUntil(at, c.views.deliver)
		miner := sources[k]
		id := c.views.addBlock(c.views.tip[miner])
		c.minedBy = append(c.minedBy, int32(miner))
		if c.views.height[id] > c.views.height[c.canon] {
			c.canon = id
		}
		c.views.deliver(miner, id)
		for node, d := range arrivals[k] {
			if node == miner || d >= stats.InfDuration {
				continue
			}
			c.inbox.push(node, at+d, id)
		}
	}
}

// buildReport prices a replayed run whose canonical chain ends at canon.
func buildReport(cfg Config, n int, power []float64, views *views, minedBy []int32, canon int32, rounds int) *Report {
	mined := len(minedBy) - 1 // genesis excluded
	rep := &Report{
		Nodes:         n,
		DurationNS:    cfg.Duration.Nanoseconds(),
		Rounds:        rounds,
		BlocksMined:   mined,
		Reorgs:        views.reorgs,
		MaxReorgDepth: views.maxDepth,
		Revenue:       make([]int, n),
	}

	canonical := 0
	for id := canon; id > 0; id = views.parent[id] {
		rep.Revenue[minedBy[id]]++
		canonical++
	}
	rep.CanonicalBlocks = canonical
	rep.StaleBlocks = mined - canonical

	// Fork events: blocks (genesis included) with two or more children.
	children := make([]int, len(views.parent))
	for id := 1; id < len(views.parent); id++ {
		children[views.parent[id]]++
	}
	for _, c := range children {
		if c >= 2 {
			rep.ForkEvents++
		}
	}

	if mined > 0 {
		rep.StaleRate = float64(rep.StaleBlocks) / float64(mined)
		rep.ForkRate = float64(rep.ForkEvents) / float64(mined)
	}

	// Revenue skew: half the L1 distance between revenue share and hash
	// power share.
	if canonical > 0 {
		var total float64
		for _, p := range power {
			total += p
		}
		var l1 float64
		for i, p := range power {
			share := float64(rep.Revenue[i]) / float64(canonical)
			l1 += math.Abs(share - p/total)
		}
		rep.RevenueSkew = l1 / 2
	}
	return rep
}
