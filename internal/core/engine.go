package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/hashpower"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/netsim"
	"github.com/perigee-net/perigee/internal/parallel"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/topology"
)

// Params are the protocol constants of Algorithm 1.
type Params struct {
	// OutDegree is the number of outgoing connections each node keeps
	// (paper: 8).
	OutDegree int
	// Explore is the number of random exploration connections made each
	// round (paper: e_v = 2); the best OutDegree−Explore scorers are
	// retained (d_v = 6).
	Explore int
	// Percentile is the offset quantile used by all scoring methods
	// (paper: 0.9).
	Percentile float64
	// RoundBlocks is |B|, the number of blocks mined per round (paper: 100
	// for Vanilla/Subset, 1 for UCB).
	RoundBlocks int
	// UCBConstant is the exploration constant c in eq. (3)–(4). The paper
	// does not publish a value; 50ms is calibrated so the confidence bonus
	// is on the order of inter-regional latency differences.
	UCBConstant time.Duration
}

// maxDialAttempts bounds the random candidate retries when an exploration
// target declines the connection (incoming slots full).
const maxDialAttempts = 200

// DefaultParams returns the paper's evaluation constants for a method.
func DefaultParams(m Method) Params {
	p := Params{
		OutDegree:   8,
		Explore:     2,
		Percentile:  0.9,
		RoundBlocks: 100,
		UCBConstant: 50 * time.Millisecond,
	}
	if m == UCB {
		// §4.2.2: UCB rounds span a single block, and neighbor replacement
		// happens through interval-separation evictions rather than a
		// fixed exploration quota.
		p.RoundBlocks = 1
		p.Explore = 0
	}
	return p
}

func (p Params) validate() error {
	if p.OutDegree <= 0 {
		return fmt.Errorf("core: out-degree %d must be positive", p.OutDegree)
	}
	if p.Explore < 0 || p.Explore > p.OutDegree {
		return fmt.Errorf("core: explore count %d outside [0, %d]", p.Explore, p.OutDegree)
	}
	if p.Percentile <= 0 || p.Percentile > 1 {
		return fmt.Errorf("core: percentile %v outside (0, 1]", p.Percentile)
	}
	if p.RoundBlocks <= 0 {
		return fmt.Errorf("core: round blocks %d must be positive", p.RoundBlocks)
	}
	if p.UCBConstant < 0 {
		return fmt.Errorf("core: UCB constant %v must be non-negative", p.UCBConstant)
	}
	return nil
}

// Config assembles an Engine.
type Config struct {
	// Method selects the scoring rule implemented by the default selector.
	Method Method
	// Params are the protocol constants; zero value means DefaultParams(Method).
	Params Params
	// Selector, if non-nil, overrides Method as the per-node decision
	// policy: the engine becomes a driver that feeds it observations and
	// applies its keep/drop/dial decisions. Nil means
	// SelectorFromMethod(Method, Params).
	Selector Selector
	// Table is the evolving connection table (pre-seeded, e.g. by
	// topology.Random). The engine takes ownership. Its pinned edges (see
	// topology.Table.Pin, e.g. a relay tree) carry blocks every round but
	// are not scored and never disconnected.
	Table *topology.Table
	// Latency is the link delay model.
	Latency latency.Model
	// Forward is the per-node validation delay Δ_v.
	Forward []time.Duration
	// Power is the per-node hash power (any non-negative scale).
	Power []float64
	// Frozen marks nodes that never update their neighbors (relay
	// infrastructure, protocol-deviant peers). Optional.
	Frozen []bool
	// Silent marks free-riding nodes that receive blocks but never relay
	// them (§1's protocol deviation). Optional.
	Silent []bool
	// RelayDelay adds a per-node withholding delay on top of Forward before
	// a received block is relayed onward (adversarial "accept but forward
	// late" behavior; see netsim.Config.RelayDelay). Optional. The slice is
	// read live each broadcast, so Dynamics may mutate entries between
	// rounds.
	RelayDelay []time.Duration
	// Tamper, if non-nil, rewrites the observations each node is about to
	// feed its selector: it is called once per node per round, after the
	// broadcast phase and before any decision, with the node's neighbor
	// snapshot and its per-block offset matrix (Offsets[b][i] is block b's
	// arrival offset from neighbors[i]; stats.InfDuration marks a censored
	// observation). Adversary strategies use it to model manipulated
	// timestamps — a neighbor that lies about when it delivered. Calls are
	// sequential in ascending node order, so stateful tampering stays
	// deterministic at any Workers count.
	Tamper func(node int, neighbors []int, offsets [][]time.Duration)
	// SendInterval, if non-nil, serializes each node's uploads (see
	// netsim.Config.SendInterval).
	SendInterval []time.Duration
	// Rand drives source sampling and exploration.
	Rand *rng.RNG
	// Observer, if non-nil, receives a RoundEvent after every completed
	// round (streaming telemetry; see Observer). Optional.
	Observer Observer
	// Dynamics, if non-nil, runs after every completed round (and after the
	// observer) to mutate the network — churn, adversary injection, and
	// similar per-round environment changes. Optional.
	Dynamics Dynamics
	// Workers bounds the goroutines used for round broadcasts, scoring
	// decisions, delay evaluation, and the simulator's CSR rebuild after
	// each rewire (netsim.Config.Workers). Zero (or negative) means one
	// worker per available core. Results are bit-for-bit identical for
	// any worker count: block sources are pre-sampled from the engine RNG,
	// and every worker writes only into per-block (or per-source) storage.
	Workers int
	// LatencyMode selects precomputed vs streaming edge-delay evaluation
	// for the cached simulator (see latency.Mode). The zero value
	// (latency.Auto) picks by network size.
	LatencyMode latency.Mode
	// ObservationWindow, when positive and below RoundBlocks, bounds each
	// node's per-round observation memory to the last ObservationWindow
	// blocks of the round: selectors score a ring of out-degree × window
	// offsets instead of the full out-degree × RoundBlocks matrix. Blocks
	// are mutually independent given the fixed start-of-round topology, so
	// retaining the window's observations is bit-for-bit equivalent to
	// recording all blocks and discarding the old ones — the engine
	// therefore skips the discarded broadcasts outright, making the window
	// a CPU win as well as a memory bound. Sources are still sampled for
	// every block, keeping the engine RNG stream (and thus exploration)
	// identical at any window. Zero means no window (dense observations).
	ObservationWindow int
	// Trace enables decision tracing and counterfactual evaluation (see
	// TraceConfig). The zero value disables both; with tracing off the
	// round loop carries only dead branches and allocates nothing for it.
	Trace TraceConfig
}

// Engine runs the Perigee protocol round by round over the simulated
// network, as the paper does: connection updates execute synchronously at
// all nodes after each round's blocks are broadcast (§2.1).
type Engine struct {
	params       Params
	selector     Selector
	table        *topology.Table
	lat          latency.Model
	forward      []time.Duration
	power        []float64
	frozen       []bool
	silent       []bool
	relayDelay   []time.Duration
	sendInterval []time.Duration
	tamper       func(node int, neighbors []int, offsets [][]time.Duration)
	rand         *rng.RNG
	// selRand roots the per-(round, node) streams handed to the selector;
	// derivation is stateless, so selector draws never perturb the engine
	// stream.
	selRand   *rng.RNG
	sampler   *hashpower.Sampler
	workers   int
	latMode   latency.Mode
	obsWindow int
	observer  Observer
	dynamics  Dynamics
	trace     TraceConfig

	round int

	// scratch is the reusable round context: the cached simulator plus all
	// per-round tables, resized instead of reallocated every Step.
	scratch roundScratch
}

// roundScratch holds the engine's reusable round state. The simulator is
// built once and reconfigured in place whenever the connection table's
// version moves; the observation matrices, the harvest's inbound tables,
// per-worker Broadcasters, source slice, exploration order, and per-worker
// arrival buffers all keep their backing arrays across rounds.
type roundScratch struct {
	sim        *netsim.Simulator
	simVersion uint64
	simDirty   bool
	bcs        []*netsim.Broadcaster
	in         inbound
	obs        []Observations
	sources    []int
	decisions  []Decision
	order      []int
	arrivals   [][]time.Duration

	// The slabs prepare carves every node's observation matrix from (see
	// TimedRound.prepare): the matrices' cells and their row headers.
	cellSlab []time.Duration
	rowSlab  [][]time.Duration

	// BroadcastAll's grouping of its blocks by source (see groupBySource):
	// the per-node index, each group's first block, and each block's next
	// block from the same source.
	lastOf   []int32
	groups   []int32
	sameNext []int32
	// The window's distinct rows, each miner's first row inside it, and
	// how many window rows each stands for (see TimedRound.Finish).
	distinct []int32
	weight   []int32

	// Decide-phase scratch: the round's root for the selector streams, one
	// stream per worker that is reseeded for each node it decides, and the
	// slab each node's decision is appended into, one row of decideStride
	// indices per node.
	roundRand    rng.RNG
	streams      []rng.RNG
	decide       []int
	decideStride int

	// Tracing scratch (used only when Config.Trace enables tracing):
	// pending counterfactual queries carried into the next round, their
	// per-block hypothetical offset rows, and reusable score/censored/rank
	// buffers for the sequential emit pass.
	cfPending     []cfQuery
	cfOffsets     [][]time.Duration
	cfRank        []int
	traceScores   []time.Duration
	traceCensored []int
}

// RoundReport summarizes one protocol round.
type RoundReport struct {
	// Round is the 1-based index of the completed round.
	Round int
	// Blocks is the number of blocks broadcast.
	Blocks int
	// Dropped is the total number of outgoing connections disconnected.
	Dropped int
	// Added is the total number of new outgoing connections established.
	Added int
	// Unfilled counts outgoing slots that could not be filled after
	// maxDialAttempts (should be zero in sane configurations).
	Unfilled int
}

// RoundEvent is the streaming telemetry handed to an Observer after each
// completed round: the round report plus the exact connection churn. Edge
// lists are in deterministic order (drops by ascending node, additions in
// the round's exploration order), so they are identical for any Workers
// count. RoundReport itself stays free of slices so it remains comparable
// with ==.
type RoundEvent struct {
	// Report is the completed round's summary.
	Report RoundReport
	// Dropped lists the directed edges (v, u) disconnected by scoring.
	Dropped [][2]int
	// Added lists the directed edges (v, u) established by exploration.
	Added [][2]int
}

// Observer receives streaming per-round telemetry. ObserveRound is invoked
// synchronously at the end of Step, after the neighbor update and before
// any Dynamics run, so the engine state it can inspect (via a captured
// engine reference) is the round's converged topology. Long runs can emit
// metrics without polling; implementations must not mutate the engine.
type Observer interface {
	ObserveRound(ev RoundEvent)
}

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc func(ev RoundEvent)

// ObserveRound implements Observer.
func (f ObserverFunc) ObserveRound(ev RoundEvent) { f(ev) }

// Dynamics mutates the network between rounds: node churn (Engine.Churn),
// adversary injection, topology edits — the per-round environment changes
// that the eclipse and churn experiments previously hard-coded. AfterRound
// runs sequentially after the observer, so any randomness it draws (from
// its own derived stream) is independent of the Workers count.
type Dynamics interface {
	AfterRound(e *Engine, round int) error
}

// DynamicsFunc adapts a plain function to the Dynamics interface.
type DynamicsFunc func(e *Engine, round int) error

// AfterRound implements Dynamics.
func (f DynamicsFunc) AfterRound(e *Engine, round int) error { return f(e, round) }

// NewEngine validates the configuration and builds an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if !cfg.Method.Valid() {
		return nil, fmt.Errorf("core: invalid method %d", int(cfg.Method))
	}
	if cfg.Table == nil {
		return nil, fmt.Errorf("core: nil table")
	}
	n := cfg.Table.N()
	params := cfg.Params
	if params == (Params{}) {
		params = DefaultParams(cfg.Method)
	}
	if err := params.validate(); err != nil {
		return nil, err
	}
	if params.OutDegree >= n {
		return nil, fmt.Errorf("core: out-degree %d must be below n=%d", params.OutDegree, n)
	}
	if cfg.Latency == nil {
		return nil, fmt.Errorf("core: nil latency model")
	}
	if cfg.Latency.N() < n {
		return nil, fmt.Errorf("core: latency model covers %d nodes, table has %d", cfg.Latency.N(), n)
	}
	if len(cfg.Forward) != n {
		return nil, fmt.Errorf("core: forward delays cover %d nodes, want %d", len(cfg.Forward), n)
	}
	if len(cfg.Power) != n {
		return nil, fmt.Errorf("core: power covers %d nodes, want %d", len(cfg.Power), n)
	}
	if cfg.Frozen != nil && len(cfg.Frozen) != n {
		return nil, fmt.Errorf("core: frozen mask covers %d nodes, want %d", len(cfg.Frozen), n)
	}
	if cfg.Silent != nil && len(cfg.Silent) != n {
		return nil, fmt.Errorf("core: silent mask covers %d nodes, want %d", len(cfg.Silent), n)
	}
	if cfg.RelayDelay != nil && len(cfg.RelayDelay) != n {
		return nil, fmt.Errorf("core: relay delays cover %d nodes, want %d", len(cfg.RelayDelay), n)
	}
	if cfg.SendInterval != nil && len(cfg.SendInterval) != n {
		return nil, fmt.Errorf("core: send intervals cover %d nodes, want %d", len(cfg.SendInterval), n)
	}
	if cfg.Rand == nil {
		return nil, fmt.Errorf("core: nil rng")
	}
	if !cfg.LatencyMode.Valid() {
		return nil, fmt.Errorf("core: invalid latency mode %d", int(cfg.LatencyMode))
	}
	if cfg.ObservationWindow < 0 {
		return nil, fmt.Errorf("core: observation window %d must be non-negative", cfg.ObservationWindow)
	}
	if err := cfg.Trace.validate(); err != nil {
		return nil, err
	}
	sampler, err := hashpower.NewSampler(cfg.Power)
	if err != nil {
		return nil, err
	}
	sel := cfg.Selector
	if sel == nil {
		sel, err = SelectorFromMethod(cfg.Method, params)
		if err != nil {
			return nil, err
		}
	}
	e := &Engine{
		params:       params,
		selector:     sel,
		table:        cfg.Table,
		lat:          cfg.Latency,
		forward:      cfg.Forward,
		power:        cfg.Power,
		frozen:       cfg.Frozen,
		silent:       cfg.Silent,
		relayDelay:   cfg.RelayDelay,
		sendInterval: cfg.SendInterval,
		tamper:       cfg.Tamper,
		rand:         cfg.Rand,
		selRand:      cfg.Rand.Derive("selector"),
		sampler:      sampler,
		workers:      cfg.Workers,
		latMode:      cfg.LatencyMode,
		obsWindow:    cfg.ObservationWindow,
		observer:     cfg.Observer,
		dynamics:     cfg.Dynamics,
		trace:        cfg.Trace,
	}
	return e, nil
}

// N returns the network size.
func (e *Engine) N() int { return e.table.N() }

// Round returns how many rounds have completed.
func (e *Engine) Round() int { return e.round }

// Table exposes the evolving connection table (owned by the engine).
func (e *Engine) Table() *topology.Table { return e.table }

// Params returns the protocol constants in use.
func (e *Engine) Params() Params { return e.params }

// Power returns the per-node hash power vector the engine samples block
// sources from. The engine owns the slice; callers must not mutate it.
func (e *Engine) Power() []float64 { return e.power }

// Adjacency returns a snapshot of the current undirected communication
// graph: the table's connections and its pinned edges.
func (e *Engine) Adjacency() [][]int { return e.table.Undirected() }

// workerCount resolves the configured worker bound against the number of
// independent work items.
func (e *Engine) workerCount(items int) int {
	w := parallel.Workers(e.workers)
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ensureSim returns the engine's cached simulator, reconfiguring its CSR
// topology when the connection table has changed since the last call.
// Both the first build and every reconfiguration read the table's rows
// straight into the CSR (the table is the simulator's netsim.Rows), in
// one pass that validates them. A reconfiguration carries the delay of
// every surviving edge unless InvalidateNetworkCache was called.
func (e *Engine) ensureSim() (*netsim.Simulator, error) {
	rs := &e.scratch
	ver := e.table.Version()
	if rs.sim != nil && rs.simVersion == ver && !rs.simDirty {
		return rs.sim, nil
	}
	if rs.sim == nil {
		sim, err := netsim.NewRows(netsim.Config{
			Latency:      e.lat,
			Forward:      e.forward,
			SendInterval: e.sendInterval,
			Silent:       e.silent,
			RelayDelay:   e.relayDelay,
			LatencyMode:  e.latMode,
			Workers:      e.workers,
		}, e.table)
		if err != nil {
			return nil, err
		}
		rs.sim = sim
	} else {
		if rs.simDirty {
			rs.sim.ForgetDelays()
		}
		if err := rs.sim.ReconfigureRows(e.table); err != nil {
			return nil, err
		}
	}
	rs.simVersion = ver
	rs.simDirty = false
	return rs.sim, nil
}

// InvalidateNetworkCache makes the next simulator use re-derive every
// edge's delay from the latency model, whether or not the connection table
// has changed. A model whose delays change mid-run (adversarial partitions,
// route inflation) must invalidate: an edge's delay is computed when the
// edge appears and carried for as long as it survives, so surviving edges
// are otherwise not re-evaluated. Per-node tables read live at broadcast
// time (Forward, Silent, RelayDelay) do not need it.
func (e *Engine) InvalidateNetworkCache() { e.scratch.simDirty = true }

// growBroadcasters makes sure there are `workers` per-worker flood contexts
// over the cached simulator, reusing them (queues included) across rounds.
// The engine only runs their arrival-only floods, so none of them ever
// sizes an edge-length buffer.
func (e *Engine) growBroadcasters(sim *netsim.Simulator, workers int) {
	rs := &e.scratch
	for len(rs.bcs) < workers {
		rs.bcs = append(rs.bcs, sim.NewBroadcaster())
	}
}

// arrivalBuffers returns `workers` reusable arrival vectors, one per
// worker, for round broadcasts and the λ and receive-delay evaluations.
func (e *Engine) arrivalBuffers(workers int) [][]time.Duration {
	rs := &e.scratch
	for len(rs.arrivals) < workers {
		rs.arrivals = append(rs.arrivals, nil)
	}
	return rs.arrivals[:workers]
}

// Step runs one full protocol round: broadcast RoundBlocks blocks, collect
// per-neighbor observations at every node, then synchronously update every
// node's outgoing connections. It is a timed round whose schedule the
// engine draws itself: every block's source is sampled up front on the
// single engine stream, in block order — even the blocks an observation
// window leaves unbroadcast — so the stream is independent of the window
// and the worker count.
func (e *Engine) Step() (RoundReport, error) {
	t, err := BeginTimedRound(e, e.params.RoundBlocks)
	if err != nil {
		return RoundReport{}, err
	}
	rs := &e.scratch
	if cap(rs.sources) < e.params.RoundBlocks {
		rs.sources = make([]int, e.params.RoundBlocks)
	}
	rs.sources = rs.sources[:e.params.RoundBlocks]
	for b := range rs.sources {
		rs.sources[b] = e.sampler.Sample(e.rand)
	}
	if err := t.BroadcastAll(rs.sources, nil); err != nil {
		return RoundReport{}, err
	}
	return t.Finish()
}

// finishRound runs everything after a round's broadcast phase: observation
// tampering, the synchronous selector update, the round counter, observer
// telemetry, and dynamics. blocks is the block count recorded in the
// report (the timed driver's rounds have variable batch sizes).
func (e *Engine) finishRound(obs []Observations, blocks int) (RoundReport, error) {
	n := e.table.N()
	// Adversarial observation tampering runs between measurement and
	// decision: whatever the tamper hook writes is what the selectors see.
	if e.tamper != nil {
		for v := 0; v < n; v++ {
			e.tamper(v, obs[v].Neighbors, obs[v].Offsets)
		}
	}
	// Counterfactuals scheduled by the previous round's decisions are
	// evaluated against this round's (post-tamper) observations — the same
	// data the selectors are about to see — and streamed before this
	// round's decision records.
	if len(e.scratch.cfPending) > 0 {
		e.emitCounterfactuals(obs)
	}

	var ev *RoundEvent
	if e.observer != nil {
		ev = &RoundEvent{}
	}
	report, err := e.update(obs, ev)
	if err != nil {
		return RoundReport{}, err
	}
	e.round++
	report.Round = e.round
	report.Blocks = blocks
	if ev != nil {
		ev.Report = report
		e.observer.ObserveRound(*ev)
	}
	if e.dynamics != nil {
		if err := e.dynamics.AfterRound(e, e.round); err != nil {
			return RoundReport{}, fmt.Errorf("core: dynamics after round %d: %w", e.round, err)
		}
	}
	return report, nil
}

// update applies the selector's neighbor update synchronously at all
// nodes: first every node's decision is computed, then all drops happen,
// then all exploration connections are established in random node order.
// The decide phase is pure per node (it reads only obs[v] plus any state
// the selector keys by node), so it fans out over the worker pool; the
// table mutations and RNG-driven exploration stay sequential. A node
// decides in engine scratch: its selector stream is its worker's, reseeded
// for the node, and its decision is appended into its row of one slab, so
// the phase allocates nothing per node. When ev is non-nil the exact
// dropped/added edges are recorded into it for the observer.
func (e *Engine) update(obs []Observations, ev *RoundEvent) (RoundReport, error) {
	n := e.table.N()
	var report RoundReport
	rs := &e.scratch
	if cap(rs.decisions) < n {
		rs.decisions = make([]Decision, n)
	}
	decisions := rs.decisions[:n]
	rs.decisions = decisions
	for i := range decisions {
		decisions[i] = Decision{}
	}
	workers := e.workerCount(n)
	e.growDecideScratch(obs, workers)
	e.selRand.DeriveIndexedInto(&rs.roundRand, "round", e.round+1)
	err := parallel.ForEachIndexed(n, workers, func(worker, v int) error {
		if e.frozen != nil && e.frozen[v] {
			return nil
		}
		stream := &rs.streams[worker]
		rs.roundRand.DeriveIndexedInto(stream, "node", v)
		row := v * rs.decideStride
		d, err := Decide(e.selector, NeighborView{
			Node:         v,
			OutDegree:    e.params.OutDegree,
			Candidates:   n - 1,
			Observations: obs[v],
			Rand:         stream,
			Buf:          rs.decide[row : row : row+rs.decideStride],
		})
		if err != nil {
			return err
		}
		decisions[v] = d
		return nil
	})
	if err != nil {
		return report, err
	}
	if e.tracing() {
		e.emitDecisions(obs, decisions)
	}
	// The drops and dials are one table edit: each writes only the mover's
	// out-row and the peer's incoming count, and Commit writes the in-rows.
	e.table.Begin()
	defer e.table.Commit()
	for v := 0; v < n; v++ {
		for _, i := range decisions[v].Drop {
			u := obs[v].Neighbors[i]
			if err := e.table.Disconnect(v, u); err != nil {
				return report, fmt.Errorf("core: dropping %d->%d: %w", v, u, err)
			}
			report.Dropped++
			if ev != nil {
				ev.Dropped = append(ev.Dropped, [2]int{v, u})
			}
		}
	}
	// Exploration: spend each node's dial budget in random node order so
	// no node is systematically advantaged in the race for incoming slots.
	var record *[][2]int
	if ev != nil {
		record = &ev.Added
	}
	// rand.Perm's draws without its allocation: the identity, shuffled.
	order := rs.order[:0]
	for v := 0; v < n; v++ {
		order = append(order, v)
	}
	rs.order = order
	e.rand.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, v := range order {
		if e.frozen != nil && e.frozen[v] {
			continue
		}
		added, unfilled := e.explore(v, e.table.OutDegree(v)+decisions[v].Dial, record)
		report.Added += added
		report.Unfilled += unfilled
	}
	return report, nil
}

// growDecideScratch sizes the decide phase's scratch for obs at the given
// worker count: a stream per worker and a decision row per node as wide as
// the widest neighbor list.
func (e *Engine) growDecideScratch(obs []Observations, workers int) {
	rs := &e.scratch
	if len(rs.streams) < workers {
		rs.streams = make([]rng.RNG, workers)
	}
	rs.decideStride = 0
	for v := range obs {
		rs.decideStride = max(rs.decideStride, len(obs[v].Neighbors))
	}
	if cap(rs.decide) < len(obs)*rs.decideStride {
		rs.decide = make([]int, len(obs)*rs.decideStride)
	}
}

// explore connects v to random fresh peers until it has target outgoing
// connections, honoring incoming caps. When record is non-nil, every
// established edge (v, cand) is appended to it.
func (e *Engine) explore(v, target int, record *[][2]int) (added, unfilled int) {
	n := e.table.N()
	attempts := 0
	for e.table.OutDegree(v) < target {
		if attempts >= maxDialAttempts {
			unfilled = target - e.table.OutDegree(v)
			return added, unfilled
		}
		attempts++
		cand := e.rand.IntN(n)
		// Every refusal Connect could make is checked first, so a full
		// candidate costs a draw and an attempt but builds no error.
		if cand == v || e.table.HasOut(v, cand) || e.table.InFree(cand) == 0 {
			continue
		}
		if err := e.table.Connect(v, cand); err != nil {
			continue
		}
		added++
		if record != nil {
			*record = append(*record, [2]int{v, cand})
		}
	}
	return added, 0
}

// Run executes rounds protocol rounds, returning the last report.
func (e *Engine) Run(rounds int) (RoundReport, error) {
	if rounds <= 0 {
		return RoundReport{}, errors.New("core: round count must be positive")
	}
	var last RoundReport
	for i := 0; i < rounds; i++ {
		r, err := e.Step()
		if err != nil {
			return last, err
		}
		last = r
	}
	return last, nil
}

// Delays computes the paper's metric λ_v (§2.2) for each source in sources
// (all nodes when nil): the time for a block mined by v to reach nodes
// holding at least frac of the total hash power, on the current topology.
// The output is indexed by source, so it is independent of worker count.
func (e *Engine) Delays(frac float64, sources []int) ([]time.Duration, error) {
	sources = e.resolveSources(sources)
	out := make([]time.Duration, len(sources))
	err := e.eachArrival(sources, func(_, i int, arrival []time.Duration) error {
		var err error
		out[i], err = netsim.DelayToFraction(arrival, e.power, frac)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReceiveDelays computes the complementary metric: for each node v, the
// mean time for v to receive blocks mined by the given sources (all nodes
// when nil), or stats.InfDuration if some source never reaches v. This is
// what a free-riding node cares about — the incentive experiments compare
// it between honest and silent nodes. Each worker accumulates into private
// sums that are merged in worker order (duration addition is exact integer
// math, so the merge is independent of scheduling).
func (e *Engine) ReceiveDelays(sources []int) ([]time.Duration, error) {
	sources = e.resolveSources(sources)
	partial := make([][]time.Duration, e.workerCount(len(sources)))
	for w := range partial {
		partial[w] = make([]time.Duration, e.table.N())
	}
	err := e.eachArrival(sources, func(worker, _ int, arrival []time.Duration) error {
		sums := partial[worker]
		for v, a := range arrival {
			sums[v] = addCensored(sums[v], a)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := partial[0]
	for _, sums := range partial[1:] {
		for v, s := range sums {
			out[v] = addCensored(out[v], s)
		}
	}
	for v := range out {
		if out[v] != stats.InfDuration {
			out[v] /= time.Duration(len(sources))
		}
	}
	return out, nil
}

// addCensored adds two durations, either of which may be censored
// (stats.InfDuration); a censored term censors the sum.
func addCensored(a, b time.Duration) time.Duration {
	if a == stats.InfDuration || b == stats.InfDuration {
		return stats.InfDuration
	}
	return a + b
}

// resolveSources returns sources, or every node when it is nil.
func (e *Engine) resolveSources(sources []int) []int {
	if sources != nil {
		return sources
	}
	all := make([]int, e.table.N())
	for i := range all {
		all[i] = i
	}
	return all
}

// eachArrival is the per-source fan-out behind Delays and ReceiveDelays:
// on the current topology it hands visit the analytic arrival vector of
// every source, sources[i] on worker `worker` of e.workerCount(len(sources)),
// in that worker's reused buffer.
func (e *Engine) eachArrival(sources []int, visit func(worker, i int, arrival []time.Duration) error) error {
	sim, err := e.ensureSim()
	if err != nil {
		return err
	}
	workers := e.workerCount(len(sources))
	arrivals := e.arrivalBuffers(workers)
	return parallel.ForEachIndexed(len(sources), workers, func(worker, i int) error {
		arrival, err := sim.ArrivalAnalyticInto(arrivals[worker], sources[i])
		if err != nil {
			return err
		}
		arrivals[worker] = arrival
		return visit(worker, i, arrival)
	})
}

// Churn resets the given nodes as if they left and were replaced by fresh
// peers at the same index: all their connections (both directions) are
// torn down, any accumulated scoring history is forgotten, and the fresh
// node immediately dials OutDegree random peers. Neighbors that lose an
// outgoing connection refill it during their next round's exploration,
// matching how a real node only reacts to a disconnect when it next
// updates.
func (e *Engine) Churn(nodes []int) error {
	n := e.table.N()
	for _, v := range nodes {
		if v < 0 || v >= n {
			return fmt.Errorf("core: churn node %d out of range (n=%d)", v, n)
		}
	}
	resetter, _ := e.selector.(NodeStateResetter)
	for _, v := range nodes {
		for _, u := range e.table.OutNeighbors(v) {
			if err := e.table.Disconnect(v, u); err != nil {
				return fmt.Errorf("core: churn dropping %d->%d: %w", v, u, err)
			}
		}
		for _, u := range e.table.InNeighbors(v) {
			if err := e.table.Disconnect(u, v); err != nil {
				return fmt.Errorf("core: churn dropping %d->%d: %w", u, v, err)
			}
		}
		// The fresh peer at index v starts with no accumulated scoring
		// state. In-neighbor histories for v age out on their own: v is no
		// longer in their next view, so stateful selectors forget it.
		if resetter != nil {
			resetter.ResetNodeState(v)
		}
	}
	// Fresh nodes bootstrap with random outgoing connections, in one table
	// edit; the disconnects above read in-rows, so they ran outside it.
	e.table.Begin()
	for _, v := range nodes {
		if e.frozen != nil && e.frozen[v] {
			continue
		}
		e.explore(v, e.params.OutDegree, nil)
	}
	e.table.Commit()
	return nil
}
