package perigee

import (
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/stats"
)

// Censored marks a block a neighbor never delivered inside the
// observation window. Offsets with this value are right-censored by the
// built-in scoring rules.
const Censored = stats.InfDuration

// The selector types below are the ones both drivers run: the simulator
// (New) and the live TCP node (perigee/node) hand a Selector these very
// values, so a custom policy runs against either without modification.

// Observations holds one node's measurements for one decision round: for
// each current outgoing neighbor, the time-normalized arrival offset of
// each observed block (t̃ = t(u,v) − min over all neighbors of t(·,v),
// §4.2.1 of the paper). Offsets[b][i] is block b's offset from neighbor
// Neighbors[i]; Censored marks a block that neighbor never delivered. A
// selector must not edit them.
type Observations = core.Observations

// NeighborView is the per-node, per-round input handed to a Selector: the
// raw arrival observations plus the protocol context a decision may
// depend on (Node, OutDegree, Candidates, and a deterministic per-(node,
// round) Rand stream that randomized selectors must draw from). Buf is
// driver scratch the built-in selectors decide into; a custom selector may
// ignore it.
type NeighborView = core.NeighborView

// Decision is a Selector's verdict for one node and one round. Keep and
// Drop index into the view's Observations.Neighbors and must partition
// it; Dial is how many fresh connections the driver should attempt. A
// built-in selector's Keep and Drop may share driver scratch that is
// reused next round, so they are valid only for the round they were
// decided in; copy what you keep.
type Decision = core.Decision

// Selector is Perigee's decision loop abstracted from its environment:
// per-neighbor block-arrival observations in, keep/drop/dial decisions
// out (§4). The simulator (WithSelector) and the live TCP node
// (node.WithSelector) drive the same interface.
//
// Drivers may invoke SelectNeighbors concurrently for distinct nodes;
// implementations holding cross-round state must synchronize it and key
// it by view.Node. Randomized policies must draw from view.Rand so
// simulated runs stay bit-for-bit reproducible. Stateful selectors should
// also implement NodeStateResetter so churned nodes restart clean.
type Selector = core.Selector

// SelectorFunc adapts a plain function to the Selector interface.
type SelectorFunc = core.SelectorFunc

// NodeStateResetter is implemented by stateful Selectors (such as
// UCBSelector) that accumulate per-node history across rounds. Drivers
// call ResetNodeState when a node's identity is reset — e.g. churn
// replacing it with a fresh peer — so stale history cannot leak into the
// replacement.
type NodeStateResetter = core.NodeStateResetter

// Decide runs the selector on the view and validates the decision (Keep
// and Drop partition the neighbor indices, Dial is non-negative) — the
// same call both drivers make. It is exported so custom selectors can be
// unit-tested against the exact contract the drivers enforce.
func Decide(sel Selector, view NeighborView) (Decision, error) { return core.Decide(sel, view) }

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

// builtinSelector is a built-in policy as installed through WithSelector
// or node.WithSelector: the core selector, plus what a Selector value
// cannot carry by itself — the engine params its arguments imply, its
// trace label, and its constructor error — so New takes the whole recipe
// from the installed value. The engine runs the unwrapped core selector;
// anyone else calling it gets a decision of its own.
type builtinSelector struct {
	sel    core.Selector
	err    error
	params core.Params
	label  string
}

// SelectNeighbors decides without the view's Buf: the engine hands its
// own slab only to the selector it runs, so a custom selector that calls a
// built-in must not have that decision written over its own.
func (b *builtinSelector) SelectNeighbors(view NeighborView) (Decision, error) {
	if b.err != nil {
		return Decision{}, b.err
	}
	view.Buf = nil
	return b.sel.SelectNeighbors(view)
}

// SelectorError reports a constructor-argument error, letting drivers
// fail fast at build time instead of on the first round.
func (b *builtinSelector) SelectorError() error { return b.err }

// ResetNodeState forwards churn resets to stateful core selectors.
func (b *builtinSelector) ResetNodeState(node int) {
	if r, ok := b.sel.(core.NodeStateResetter); ok {
		r.ResetNodeState(node)
	}
}

// engineSelector resolves the installed Selector for the simulator: the
// selector the engine runs, the engine params it implies, and its trace
// label. A custom selector runs as-is on Subset defaults, labelled
// "custom".
func engineSelector(s Selector) (core.Selector, core.Params, string) {
	if b, ok := s.(*builtinSelector); ok {
		return b.sel, b.params, b.label
	}
	return s, core.DefaultParams(core.Subset), "custom"
}
