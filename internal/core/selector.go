package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
)

// NeighborView is the per-node, per-round input handed to a Selector: the
// raw block-arrival observations for the node's current outgoing neighbors
// plus the protocol context the decision may depend on. The root package
// exports it as perigee.NeighborView, and both drivers of the decision
// loop — the simulation engine (Engine.Step) and the live TCP node
// (package node) — hand a Selector this one type, so one Selector runs
// unmodified in either environment.
type NeighborView struct {
	// Node is the driver-assigned stable key of the deciding node. The
	// simulator uses the node index; a live node uses the two's-complement
	// view of its 64-bit node ID. Stateful selectors key cross-round state
	// by it.
	Node int
	// OutDegree is the target number of outgoing connections.
	OutDegree int
	// Candidates is how many distinct peers the driver could dial beyond
	// the current neighbors (network size minus one in the simulator, the
	// address-book size on a live node). Informational.
	Candidates int
	// Observations holds the round's per-neighbor arrival offsets.
	Observations Observations
	// Rand is a deterministic random stream derived for this (node, round)
	// pair. Randomized selectors must draw from it — and only it — so runs
	// stay reproducible at any worker count. The stream is valid only for
	// the call: the simulator reseeds it for the next node, so a selector
	// must not keep it.
	Rand *rng.RNG
	// Buf is driver-owned scratch with capacity for at least
	// len(Observations.Neighbors) indices. The built-in selectors append
	// Keep, then Drop, into it, so their decision's slices alias it and are
	// valid only for the round. Nil (as on a live node) means they allocate
	// their own. A custom selector may ignore it.
	Buf []int
}

// Decision is a Selector's verdict for one node and one round. Keep and
// Drop index into the view's Observations.Neighbors and must partition
// it: every neighbor index appears in exactly one of the two lists. Dial
// is the exploration budget — how many fresh connections the driver
// should attempt to establish. When the view carries a Buf the built-in
// selectors' Keep and Drop alias it, so they are valid only for the
// round; copy what you keep.
type Decision struct {
	// Keep lists the neighbor indices to retain.
	Keep []int
	// Drop lists the neighbor indices to disconnect, in the order the
	// driver should report them.
	Drop []int
	// Dial is the number of new connections to attempt.
	Dial int
}

// Selector is the Perigee decision loop abstracted from its environment:
// observations in, keep/drop/dial decisions out (§4 of the paper). Drivers
// may invoke SelectNeighbors concurrently for distinct nodes, so stateful
// implementations must synchronize access to cross-round state (and key it
// by view.Node), and should implement NodeStateResetter so churned nodes
// restart clean.
type Selector interface {
	SelectNeighbors(view NeighborView) (Decision, error)
}

// SelectorFunc adapts a plain function to the Selector interface.
type SelectorFunc func(view NeighborView) (Decision, error)

// SelectNeighbors implements Selector.
func (f SelectorFunc) SelectNeighbors(view NeighborView) (Decision, error) { return f(view) }

// NodeStateResetter is implemented by stateful selectors (such as UCB)
// that accumulate per-node history across rounds. Drivers call
// ResetNodeState when a node's identity is reset — e.g. churn replacing it
// with a fresh peer — so stale history cannot leak into the replacement.
type NodeStateResetter interface {
	ResetNodeState(node int)
}

// Decide runs the selector on the view and validates the decision: Keep
// and Drop must partition the neighbor indices, and Dial must be
// non-negative. Both drivers route every selector call through it.
func Decide(sel Selector, view NeighborView) (Decision, error) {
	d, err := sel.SelectNeighbors(view)
	if err != nil {
		return Decision{}, fmt.Errorf("core: selector for node %d: %w", view.Node, err)
	}
	if err := validateDecision(d, len(view.Observations.Neighbors)); err != nil {
		return Decision{}, fmt.Errorf("core: selector for node %d: %w", view.Node, err)
	}
	return d, nil
}

// validateDecision checks a decision against the neighbor count it was
// made for: every index in [0, neighbors) must appear exactly once across
// Keep and Drop, and Dial must be non-negative.
func validateDecision(d Decision, neighbors int) error {
	if d.Dial < 0 {
		return fmt.Errorf("negative dial budget %d", d.Dial)
	}
	// A node has a handful of neighbors: the marks stay on the stack.
	var few [64]bool
	seen := few[:]
	if neighbors > len(few) {
		seen = make([]bool, neighbors)
	}
	mark := func(list string, idx int) error {
		if idx < 0 || idx >= neighbors {
			return fmt.Errorf("%s index %d outside [0, %d)", list, idx, neighbors)
		}
		if seen[idx] {
			return fmt.Errorf("neighbor index %d decided twice", idx)
		}
		seen[idx] = true
		return nil
	}
	for _, i := range d.Keep {
		if err := mark("keep", i); err != nil {
			return err
		}
	}
	for _, i := range d.Drop {
		if err := mark("drop", i); err != nil {
			return err
		}
	}
	if got := len(d.Keep) + len(d.Drop); got != neighbors {
		return fmt.Errorf("decision covers %d of %d neighbors", got, neighbors)
	}
	return nil
}

// SelectorFromMethod builds the built-in selector implementing the given
// scoring method with the protocol constants in p.
func SelectorFromMethod(m Method, p Params) (Selector, error) {
	switch m {
	case Vanilla:
		return NewVanillaSelector(p.Explore, p.Percentile)
	case Subset:
		return NewSubsetSelector(p.Explore, p.Percentile)
	case UCB:
		return NewUCBSelector(p.Percentile, p.UCBConstant)
	default:
		return nil, fmt.Errorf("core: no selector for method %d", int(m))
	}
}

// dialBudget refills toward the out-degree target: the number of dials
// that brings a node with k neighbors and the given drops back to
// outDegree outgoing connections.
func dialBudget(outDegree, neighbors, drops int) int {
	dial := outDegree - (neighbors - drops)
	if dial < 0 {
		dial = 0
	}
	return dial
}

// decisionBuf returns the view's decision buffer emptied, or a fresh one
// when the driver supplied none large enough.
func decisionBuf(view NeighborView) []int {
	if k := len(view.Observations.Neighbors); cap(view.Buf) < k {
		return make([]int, 0, k)
	}
	return view.Buf[:0]
}

// splitDecision is the decision whose first keep indices of buf are kept
// and whose rest, which must cover the view's other neighbors, are
// dropped.
func splitDecision(view NeighborView, buf []int, keep int) Decision {
	d := Decision{Keep: buf[:keep:keep], Dial: dialBudget(view.OutDegree, len(buf), len(buf)-keep)}
	if keep < len(buf) {
		d.Drop = buf[keep:len(buf):len(buf)]
	}
	return d
}

// identity appends 0, 1, ..., k-1 to buf.
func identity(buf []int, k int) []int {
	for i := 0; i < k; i++ {
		buf = append(buf, i)
	}
	return buf
}

// keepAll is the no-drop decision: retain every neighbor and refill any
// unfilled slots.
func keepAll(view NeighborView) Decision {
	k := len(view.Observations.Neighbors)
	return splitDecision(view, identity(decisionBuf(view), k), k)
}

func validateExplore(explore int) error {
	if explore < 0 {
		return fmt.Errorf("core: explore count %d must be non-negative", explore)
	}
	return nil
}

func validatePercentile(pct float64) error {
	if pct <= 0 || pct > 1 {
		return fmt.Errorf("core: percentile %v outside (0, 1]", pct)
	}
	return nil
}

// retainTarget is the number of neighbors a rotation selector keeps:
// OutDegree minus its exploration quota, floored at zero for undersized
// custom out-degrees.
func retainTarget(outDegree, explore int) int {
	retain := outDegree - explore
	if retain < 0 {
		retain = 0
	}
	return retain
}

// vanillaSelector scores each neighbor independently by the
// pct-percentile of its offsets (§4.2.1) and rotates the worst explore of
// them out every round.
type vanillaSelector struct {
	explore int
	pct     float64
}

// NewVanillaSelector builds the §4.2.1 independent-percentile selector:
// each round it keeps the OutDegree−explore best-scoring neighbors, drops
// the rest, and dials back up to OutDegree.
func NewVanillaSelector(explore int, percentile float64) (Selector, error) {
	if err := validateExplore(explore); err != nil {
		return nil, err
	}
	if err := validatePercentile(percentile); err != nil {
		return nil, err
	}
	return &vanillaSelector{explore: explore, pct: percentile}, nil
}

func (s *vanillaSelector) SelectNeighbors(view NeighborView) (Decision, error) {
	k := len(view.Observations.Neighbors)
	retain := retainTarget(view.OutDegree, s.explore)
	if k <= retain {
		return keepAll(view), nil
	}
	sp := columnPool.Get().(*[]time.Duration)
	scores := grow(sp, k)
	VanillaScoresInto(scores, view.Observations, s.pct)
	// Drops stay in ranked (worst-last) order so driver churn reports are
	// deterministic and match the historical engine behavior.
	ranked := rankInto(decisionBuf(view), view.Observations, scores)
	columnPool.Put(sp)
	return splitDecision(view, ranked, retain), nil
}

// subsetSelector greedily keeps the group of neighbors whose joint
// delivery profile is fastest (§4.3), the paper's preferred rule.
type subsetSelector struct {
	explore int
	pct     float64
}

// NewSubsetSelector builds the §4.3 joint-scoring selector: each round it
// keeps the OutDegree−explore neighbors whose combined per-block minima
// are fastest, drops the rest, and dials back up to OutDegree.
func NewSubsetSelector(explore int, percentile float64) (Selector, error) {
	if err := validateExplore(explore); err != nil {
		return nil, err
	}
	if err := validatePercentile(percentile); err != nil {
		return nil, err
	}
	return &subsetSelector{explore: explore, pct: percentile}, nil
}

func (s *subsetSelector) SelectNeighbors(view NeighborView) (Decision, error) {
	k := len(view.Observations.Neighbors)
	retain := retainTarget(view.OutDegree, s.explore)
	if k <= retain {
		return keepAll(view), nil
	}
	// The keep list is ascending, so the drops are the gaps of one merged
	// walk.
	buf := subsetSelectInto(decisionBuf(view), view.Observations, retain, s.pct)
	kept := len(buf)
	next := 0
	for i := 0; i < k; i++ {
		if next < kept && buf[next] == i {
			next++
			continue
		}
		buf = append(buf, i)
	}
	return splitDecision(view, buf, kept), nil
}

// ucbSelector maintains per-neighbor confidence intervals over offsets
// accumulated across the rounds a connection stays alive (§4.2.2) and
// evicts at most one neighbor per round, when the intervals separate.
type ucbSelector struct {
	pct float64
	c   time.Duration

	mu sync.Mutex
	// hist[node][neighbor] accumulates finite offsets while the connection
	// is alive. Guarded by mu because drivers decide distinct nodes
	// concurrently; per-node entries are disjoint, so locking does not
	// perturb determinism.
	hist map[int]map[int][]time.Duration
}

// NewUCBSelector builds the §4.2.2 confidence-bound selector with the
// given scoring percentile and exploration constant c of eq. (3)–(4). It
// is stateful: offsets accumulate per (node, neighbor) across rounds, so
// give each independent experiment its own instance.
func NewUCBSelector(percentile float64, confidence time.Duration) (Selector, error) {
	if err := validatePercentile(percentile); err != nil {
		return nil, err
	}
	if confidence < 0 {
		return nil, fmt.Errorf("core: UCB constant %v must be non-negative", confidence)
	}
	return &ucbSelector{pct: percentile, c: confidence, hist: make(map[int]map[int][]time.Duration)}, nil
}

func (s *ucbSelector) SelectNeighbors(view NeighborView) (Decision, error) {
	k := len(view.Observations.Neighbors)
	if k == 0 {
		return keepAll(view), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	nodeHist := s.hist[view.Node]

	lcbs := make([]time.Duration, k)
	ucbs := make([]time.Duration, k)
	for i, u := range view.Observations.Neighbors {
		samples := nodeHist[u]
		// Include this round's finite offsets in the decision.
		for _, row := range view.Observations.Offsets {
			if row[i] != stats.InfDuration {
				samples = append(samples, row[i])
			}
		}
		lcbs[i], ucbs[i] = UCBBounds(samples, s.pct, s.c)
	}
	evict := UCBEvict(lcbs, ucbs)

	buf := decisionBuf(view)
	for i := 0; i < k; i++ {
		if i != evict {
			buf = append(buf, i)
		}
	}
	kept := len(buf)
	if evict >= 0 {
		buf = append(buf, evict)
	}

	// Histories survive only for kept connections: dropped neighbors are
	// forgotten, and neighbors that disappeared outside the decision loop
	// (e.g. churn) age out because they no longer appear in the view.
	next := make(map[int][]time.Duration, kept)
	for _, i := range buf[:kept] {
		u := view.Observations.Neighbors[i]
		samples := nodeHist[u]
		for _, row := range view.Observations.Offsets {
			if row[i] != stats.InfDuration {
				samples = append(samples, row[i])
			}
		}
		next[u] = samples
	}
	s.hist[view.Node] = next

	return splitDecision(view, buf, kept), nil
}

// ResetNodeState implements NodeStateResetter: a churned node restarts
// with no accumulated history.
func (s *ucbSelector) ResetNodeState(node int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.hist, node)
}

// randomSelector keeps a uniformly random subset each round — the
// "Random" baseline the paper's evaluation compares against.
type randomSelector struct {
	explore int
}

// NewRandomSelector builds the random-rotation baseline: each round it
// keeps a uniformly random OutDegree−explore subset of the current
// neighbors and dials fresh peers for the rest. Draws come from the
// view's derived random stream, so runs stay reproducible.
func NewRandomSelector(explore int) (Selector, error) {
	if err := validateExplore(explore); err != nil {
		return nil, err
	}
	return &randomSelector{explore: explore}, nil
}

func (s *randomSelector) SelectNeighbors(view NeighborView) (Decision, error) {
	k := len(view.Observations.Neighbors)
	retain := retainTarget(view.OutDegree, s.explore)
	if k <= retain {
		return keepAll(view), nil
	}
	if view.Rand == nil {
		return Decision{}, fmt.Errorf("core: random selector needs a view random stream")
	}
	// Rand.Perm(k)'s draws, shuffling the buffer in place.
	perm := identity(decisionBuf(view), k)
	view.Rand.Shuffle(k, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	sort.Ints(perm[:retain])
	sort.Ints(perm[retain:])
	return splitDecision(view, perm, retain), nil
}
