package perigee

import (
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/stats"
)

// Censored marks a block a neighbor never delivered inside the
// observation window. Offsets with this value are right-censored by the
// built-in scoring rules.
const Censored = stats.InfDuration

// Observations holds one node's measurements for one decision round: for
// each current outgoing neighbor, the time-normalized arrival offset of
// each observed block (t̃ = t(u,v) − min over all neighbors of t(·,v),
// §4.2.1 of the paper). Offsets[b][i] is block b's offset from neighbor
// Neighbors[i]; Censored marks a block that neighbor never delivered.
type Observations struct {
	// Neighbors are opaque keys for the outgoing neighbors being scored.
	Neighbors []int
	// Offsets[b][i] is the offset of block b from neighbor Neighbors[i].
	Offsets [][]time.Duration
}

// NeighborView is the per-node, per-round input handed to a Selector: the
// raw arrival observations plus the protocol context a decision may
// depend on. The same view shape is produced by both drivers of the
// decision loop — the simulator (New) and the live TCP node
// (perigee/node) — so one Selector runs unmodified in either environment.
type NeighborView struct {
	// Node is the driver-assigned stable key of the deciding node: the
	// node index in the simulator, the two's-complement view of the
	// 64-bit node ID on a live node. Stateful selectors key cross-round
	// state by it.
	Node int
	// OutDegree is the target number of outgoing connections.
	OutDegree int
	// Candidates is how many distinct peers the driver could dial beyond
	// the current neighbors (network size minus one in the simulator, the
	// address-book size on a live node). Informational.
	Candidates int
	// Observations holds the round's per-neighbor arrival offsets.
	Observations Observations
	// Rand is a deterministic random stream derived for this
	// (node, round) pair. Randomized selectors must draw from it — and
	// only it — so simulated runs stay reproducible at any worker count.
	// The stream is valid only for the call: the simulator reseeds it for
	// the next node, so a selector must not keep it.
	Rand *Rand
}

// Decision is a Selector's verdict for one node and one round. Keep and
// Drop index into the view's Observations.Neighbors and must partition
// it: every neighbor index appears in exactly one of the two lists. Dial
// is the exploration budget — how many fresh connections the driver
// should attempt to establish. A built-in selector's Keep and Drop may
// share driver scratch that is reused next round, so they are valid only
// for the round they were decided in; copy what you keep.
type Decision struct {
	// Keep lists the neighbor indices to retain.
	Keep []int
	// Drop lists the neighbor indices to disconnect, in the order the
	// driver should report them.
	Drop []int
	// Dial is the number of new connections to attempt.
	Dial int
}

// Selector is Perigee's decision loop abstracted from its environment:
// per-neighbor block-arrival observations in, keep/drop/dial decisions
// out (§4). The simulator (WithSelector) and the live TCP node
// (node.WithSelector) drive the same interface, so a custom policy runs
// against both without modification.
//
// Drivers may invoke SelectNeighbors concurrently for distinct nodes;
// implementations holding cross-round state must synchronize it and key
// it by view.Node. Randomized policies must draw from view.Rand so
// simulated runs stay bit-for-bit reproducible. Stateful selectors should
// also implement NodeStateResetter so churned nodes restart clean.
type Selector interface {
	SelectNeighbors(view NeighborView) (Decision, error)
}

// SelectorFunc adapts a plain function to the Selector interface.
type SelectorFunc func(view NeighborView) (Decision, error)

// SelectNeighbors implements Selector.
func (f SelectorFunc) SelectNeighbors(view NeighborView) (Decision, error) { return f(view) }

// NodeStateResetter is implemented by stateful Selectors (such as
// UCBSelector) that accumulate per-node history across rounds. Drivers
// call ResetNodeState when a node's identity is reset — e.g. churn
// replacing it with a fresh peer — so stale history cannot leak into the
// replacement.
type NodeStateResetter interface {
	ResetNodeState(node int)
}

// Decide runs the selector on the view and validates the decision (Keep
// and Drop partition the neighbor indices, Dial is non-negative) — the
// same checks both drivers apply. It is exported so custom selectors can
// be unit-tested against the exact contract the drivers enforce.
func Decide(sel Selector, view NeighborView) (Decision, error) {
	d, err := sel.SelectNeighbors(view)
	if err != nil {
		return Decision{}, fmt.Errorf("perigee: selector for node %d: %w", view.Node, err)
	}
	if err := core.ValidateDecision(core.Decision(d), len(view.Observations.Neighbors)); err != nil {
		return Decision{}, fmt.Errorf("perigee: selector for node %d: %w", view.Node, err)
	}
	return d, nil
}

// SubsetSelector returns the paper's preferred policy (§4.3): each round
// it keeps the OutDegree−explore neighbors whose joint delivery profile
// is fastest at the given percentile, drops the rest, and dials back up
// to OutDegree. Invalid parameters are reported when the selector is
// installed (WithSelector, node.WithSelector) or first used.
func SubsetSelector(explore int, percentile float64) Selector {
	sel, err := core.NewSubsetSelector(explore, percentile)
	p := core.DefaultParams(core.Subset)
	p.Explore, p.Percentile = explore, percentile
	return &builtinSelector{sel: sel, err: err, params: p, label: core.Subset.String()}
}

// VanillaSelector returns the §4.2.1 policy: each round it keeps the
// OutDegree−explore neighbors with the best independent percentile
// scores, drops the rest, and dials back up to OutDegree.
func VanillaSelector(explore int, percentile float64) Selector {
	sel, err := core.NewVanillaSelector(explore, percentile)
	p := core.DefaultParams(core.Vanilla)
	p.Explore, p.Percentile = explore, percentile
	return &builtinSelector{sel: sel, err: err, params: p, label: core.Vanilla.String()}
}

// UCBSelector returns the §4.2.2 policy: per-neighbor confidence
// intervals over offsets accumulated across rounds, evicting at most one
// neighbor per round when the intervals separate. Its simulated rounds
// span a single block unless WithRoundBlocks says otherwise. It is
// stateful — give each independent run its own instance — and implements
// NodeStateResetter so churned nodes restart with no history.
func UCBSelector(percentile float64, confidence time.Duration) Selector {
	sel, err := core.NewUCBSelector(percentile, confidence)
	p := core.DefaultParams(core.UCB)
	p.Percentile, p.UCBConstant = percentile, confidence
	return &builtinSelector{sel: sel, err: err, params: p, label: core.UCB.String()}
}

// RandomSelector returns the random-rotation baseline the paper compares
// against: each round it keeps a uniformly random OutDegree−explore
// subset of the current neighbors and dials fresh peers for the rest.
func RandomSelector(explore int) Selector {
	sel, err := core.NewRandomSelector(explore)
	p := core.DefaultParams(core.Subset)
	p.Explore = explore
	return &builtinSelector{sel: sel, err: err, params: p, label: "random"}
}

// builtinSelector wraps a core selector as a public Selector, together
// with the engine params its arguments imply and its trace label, so New
// takes the whole recipe from the installed value. The exported methods
// on the unexported type let the perigee/node package unwrap the core
// implementation and fail fast on construction errors without exposing
// internal types in the API.
type builtinSelector struct {
	sel    core.Selector
	err    error
	params core.Params
	label  string
}

func (b *builtinSelector) SelectNeighbors(view NeighborView) (Decision, error) {
	if b.err != nil {
		return Decision{}, b.err
	}
	d, err := b.sel.SelectNeighbors(coreView(view))
	return Decision(d), err
}

// CoreSelector exposes the wrapped core implementation to the drivers.
func (b *builtinSelector) CoreSelector() core.Selector { return b.sel }

// SelectorError reports a constructor-argument error, letting drivers
// fail fast at build time instead of on the first round.
func (b *builtinSelector) SelectorError() error { return b.err }

// ResetNodeState forwards churn resets to stateful core selectors.
func (b *builtinSelector) ResetNodeState(node int) {
	if r, ok := b.sel.(core.NodeStateResetter); ok {
		r.ResetNodeState(node)
	}
}

func coreView(view NeighborView) core.NeighborView {
	return core.NeighborView{
		Node:       view.Node,
		OutDegree:  view.OutDegree,
		Candidates: view.Candidates,
		Obs: core.Observations{
			Neighbors: view.Observations.Neighbors,
			Offsets:   view.Observations.Offsets,
		},
		Rand: view.Rand,
	}
}

func publicView(view core.NeighborView) NeighborView {
	return NeighborView{
		Node:       view.Node,
		OutDegree:  view.OutDegree,
		Candidates: view.Candidates,
		Observations: Observations{
			Neighbors: view.Obs.Neighbors,
			Offsets:   view.Obs.Offsets,
		},
		Rand: view.Rand,
	}
}

// selectorBridge adapts a user-implemented public Selector to the core
// interface the engine drives.
type selectorBridge struct {
	inner Selector
}

func (sb selectorBridge) SelectNeighbors(view core.NeighborView) (core.Decision, error) {
	d, err := sb.inner.SelectNeighbors(publicView(view))
	return core.Decision(d), err
}

func (sb selectorBridge) ResetNodeState(node int) {
	if r, ok := sb.inner.(NodeStateResetter); ok {
		r.ResetNodeState(node)
	}
}

// engineSelector resolves the installed Selector for the simulator: the
// core selector the engine runs, the engine params it implies, and its
// trace label. A custom selector runs on Subset defaults, labelled
// "custom".
func engineSelector(s Selector) (core.Selector, core.Params, string) {
	if b, ok := s.(*builtinSelector); ok {
		return b.sel, b.params, b.label
	}
	return selectorBridge{inner: s}, core.DefaultParams(core.Subset), "custom"
}
