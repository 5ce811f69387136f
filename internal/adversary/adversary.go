// Package adversary is Perigee's pluggable attack framework: a small
// Strategy interface that expresses how an adversary behaves, plus the
// built-in strategies the robustness scenarios run (§6 of the paper
// discusses the attack surface; the IOTA auto-peering and OverChain
// studies motivate treating it as a first-class design axis).
//
// A Strategy binds to one run through Setup, which receives two things:
//
//   - Env — the immutable facts of the run: network size, which node
//     indices the adversary controls, and a private deterministic random
//     stream;
//   - Network — the mutable behavior tables of those nodes: validation
//     delay (Forward), free-riding (Silent), withholding (RelayDelay),
//     protocol deviation (Frozen), and — when the driver supports it — a
//     latency.MutableLatency handle for tampering with link delays mid-run.
//
// Setup rewrites the tables it cares about and returns an Agent: the
// run's live hooks. Agent.TamperObservations models manipulated
// measurements (a neighbor lying about when it delivered a block), and
// Agent.AfterRound applies per-round topology pressure through a Control
// handle (aggressive dialing, severing links, flipping behavior between
// rounds). A purely behavioral strategy returns the zero Agent.
//
// The same Strategy value runs unmodified in the simulation engine
// (perigee.WithAdversary), the experiment harness (the adversary-*
// scenarios), and — for its behavioral hooks — a live TCP node
// (node.WithAdversary, which runs the node as one compromised identity).
//
// # Writing a custom strategy
//
// A strategy is ~20 lines. This one delays a random half of the
// compromised nodes and re-dials one fresh victim per adversary per
// round:
//
//	type flaky struct{}
//
//	func (flaky) Name() string  { return "flaky" }
//	func (flaky) Brief() string { return "half withhold; all rotate one victim per round" }
//
//	func (flaky) Setup(env *adversary.Env, net *adversary.Network) (adversary.Agent, error) {
//	    for _, a := range env.Adversaries {
//	        if env.Rand.Float64() < 0.5 {
//	            net.RelayDelay[a] += 200 * time.Millisecond
//	        }
//	    }
//	    return adversary.Agent{
//	        AfterRound: func(ctl adversary.Control, round int) error {
//	            for _, a := range env.Adversaries {
//	                v := env.Rand.IntN(env.N)
//	                if v != a && !env.IsAdversary[v] && !ctl.HasOut(a, v) {
//	                    _ = ctl.Connect(a, v) // full inbox: just try elsewhere next round
//	                }
//	            }
//	            return nil
//	        },
//	    }, nil
//	}
//
// All hook signatures use only basic types, so custom strategies can be
// written against the public aliases (perigee.Adversary, AdversaryEnv,
// AdversaryNetwork, AdversaryAgent, AdversaryControl) without importing
// internal packages.
package adversary

import (
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
)

// Censored marks an observation slot for a block a neighbor never
// delivered inside the window. TamperObservations hooks must treat it as
// "no delivery happened", not as a very large offset.
const Censored = stats.InfDuration

// Env is the immutable context of one adversarial run.
type Env struct {
	// N is the network size.
	N int
	// Adversaries lists the node indices under adversary control, in the
	// (random) order the driver sampled them. Strategies that split the
	// compromised set into sub-roles may rely on this order being an
	// unbiased shuffle.
	Adversaries []int
	// IsAdversary is the membership mask over all N nodes.
	IsAdversary []bool
	// Rand is the strategy's private deterministic stream, derived from
	// the run seed. Strategies must draw randomness from it — and only it
	// — so adversarial runs reproduce bit-for-bit.
	Rand *rng.RNG
}

// Network is the mutable behavior surface of one run. Setup rewrites the
// entries of the nodes the strategy controls; the driver feeds the same
// backing slices to the engine, which reads them live each broadcast, so
// an Agent may keep mutating them between rounds (e.g. a sleeper attack
// turning Silent on at round r).
type Network struct {
	// Forward is the per-node validation delay Δ_v. Zeroing an adversary's
	// entry models instant validation (the eclipse-bias attack).
	Forward []time.Duration
	// Silent marks nodes that receive blocks but never relay them.
	Silent []bool
	// RelayDelay is a per-node withholding delay added on top of Forward
	// before relaying a received block.
	RelayDelay []time.Duration
	// Frozen marks nodes that do not run the neighbor-update protocol;
	// strategies that drive their compromised nodes' topology themselves
	// (via Agent.AfterRound) should freeze them.
	Frozen []bool
	// Latency, when non-nil, is the run's tamperable latency model.
	// Strategies that need it must error from Setup when it is nil (a
	// driver that cannot re-derive link delays mid-run).
	Latency *latency.MutableLatency
}

// Agent is one run's live adversary: the optional hooks that fire while
// the protocol runs. The zero Agent is valid and means the strategy is
// purely behavioral (fully configured by Setup).
type Agent struct {
	// TamperObservations, if non-nil, rewrites the offsets one node is
	// about to feed its neighbor selector: Offsets[b][i] is block b's
	// arrival offset from neighbors[i], Censored marking a block that
	// neighbor never delivered. It is called once per node per round,
	// in ascending node order, between measurement and decision.
	TamperObservations func(node int, neighbors []int, offsets [][]time.Duration)
	// AfterRound, if non-nil, runs after every completed round with a
	// Control handle for topology pressure. Returning an error aborts the
	// run.
	AfterRound func(ctl Control, round int) error
}

// Control is the mutation surface handed to Agent.AfterRound — the
// operations an adversary with per-round agency can perform against the
// evolving connection table.
type Control interface {
	// N returns the network size.
	N() int
	// OutDegree returns v's current number of outgoing connections.
	OutDegree(v int) int
	// OutNeighbors returns v's current outgoing neighbor set.
	OutNeighbors(v int) []int
	// HasOut reports whether the directed edge v→u exists.
	HasOut(v, u int) bool
	// Connect establishes the directed edge v→u; it fails when u's
	// incoming capacity is exhausted or the edge already exists.
	Connect(v, u int) error
	// Disconnect removes the directed edge v→u.
	Disconnect(v, u int) error
	// InvalidateNetwork forces the driver to rebuild its cached per-edge
	// state. Strategies must call it after changing the latency model
	// (per-node behavior tables are read live and do not need it).
	InvalidateNetwork()
}

// Strategy is one adversary: an identifier, a one-line description, and
// the per-run binding. Strategies must be reusable — Setup is called once
// per run, and all run state must live in the returned Agent's closures,
// never on the Strategy itself.
type Strategy interface {
	// Name is the stable identifier ("latency-liar", "sybil-flood", ...).
	Name() string
	// Brief is a one-line description shown by listings.
	Brief() string
	// Setup binds the strategy to one run: it may rewrite the behavior
	// tables in net and returns the run's Agent (the zero Agent for purely
	// behavioral strategies). Invalid strategy parameters are reported
	// here, surfacing when the driver is built.
	Setup(env *Env, net *Network) (Agent, error)
}

// Sample draws the adversary node set for a network of n nodes: a uniform
// random fraction-share of the population (truncating, matching the
// historical eclipse experiment), in shuffled order.
func Sample(n int, fraction float64, r *rng.RNG) ([]int, error) {
	if fraction < 0 || fraction >= 1 {
		return nil, fmt.Errorf("adversary: fraction %v outside [0, 1)", fraction)
	}
	k := int(fraction * float64(n))
	return r.Perm(n)[:k], nil
}
