// Package perigee is a Go implementation of Perigee, the decentralized
// peer-to-peer topology learning protocol for blockchains (Mao et al.,
// PODC 2020), together with the full simulation stack used to evaluate it.
//
// # Composable networks
//
// A simulated network is assembled with New from composable options. Each
// axis of the environment is a pluggable model — LatencyModel (link
// delays), PowerDist (mining power), ValidationDist (block validation
// time), and Dynamics (per-round churn and adversarial mutation) — so new
// scenarios are new combinations rather than new library code:
//
//	net, err := perigee.New(300,
//	    perigee.WithSeed(42),
//	    perigee.WithPower(perigee.PoolsPower(0.1, 0.9)),
//	    perigee.WithValidation(perigee.ExponentialValidation(50*time.Millisecond)),
//	)
//	...
//	before, _ := net.BroadcastDelays(0.9)
//	net.Run(20)
//	after, _ := net.BroadcastDelays(0.9) // λ_v improves as Perigee converges
//
// Streaming Observers (WithObserver) receive per-round telemetry — round
// summaries, exact connection churn, and per-node λ snapshots on demand —
// so long runs emit metrics without polling.
//
// Every unset option takes the paper's evaluation default, and equal seeds
// reproduce runs bit-for-bit at any Workers count.
//
// # Selectors
//
// The decision loop itself — which neighbors to keep, which to drop, how
// many fresh links to dial — is the Selector interface: per-neighbor
// block-arrival observations in, keep/drop/dial decisions out. The
// paper's three scoring rules and the random baseline are built-in
// values (SubsetSelector, VanillaSelector, UCBSelector, RandomSelector)
// that carry their own parameters, and WithSelector installs one of them
// or any custom implementation. The same Selector value also drives a
// live TCP node through the perigee/node package, which mirrors this
// package's options (node.WithSelector, node.WithObserver, ...) and emits
// the same RoundStats telemetry — one policy and one observer pipeline
// for both environments, so strategies validated in simulation deploy
// unchanged.
//
// # Adversaries
//
// Attack strategies are pluggable values too: an Adversary binds to a run
// through WithAdversary, rewriting the behavior of the nodes it controls
// (validation delay, free-riding, withholding, protocol deviation, link
// tampering) and optionally tampering with observations or pressing on
// the topology every round. Five strategies are built in
// (LatencyLiarAdversary, WithholdingRelayAdversary, SybilFloodAdversary,
// EclipseBiasAdversary, RegionalPartitionAdversary), each registered as
// an adversary-* scenario; custom strategies are ~30 lines against
// public types — see the Adversary docs and examples/customadversary.
// The same value runs a live TCP node as a compromised identity via
// node.WithAdversary.
//
// # Scenarios
//
// The reproductions of the paper's figures, the §6 extension studies, and
// the ablation sweeps are registered scenarios: Scenarios lists them,
// RunScenario executes one, and RegisterScenario adds your own to the same
// registry (which cmd/perigee-sim serves from the command line).
//
// The live TCP implementation is the public perigee/node package, driven
// by the cmd/perigee-node and cmd/perigee-cluster binaries.
package perigee

import (
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/trace"
)

// Network is a simulated p2p network running the Perigee protocol.
type Network struct {
	engine       *core.Engine
	observers    []Observer
	dynamics     Dynamics
	dynRand      *Rand
	adversaryEnv *AdversaryEnv

	workloadProc  ArrivalProcess
	blockInterval time.Duration
	traceFile     string
	workloadRand  *Rand
	workloadRuns  int

	traceCollector *trace.Collector
}

// RoundSummary reports one protocol round.
type RoundSummary struct {
	// Round is the 1-based round index.
	Round int
	// Blocks is the number of blocks broadcast during the round.
	Blocks int
	// ConnectionsDropped counts outgoing links disconnected by scoring.
	ConnectionsDropped int
	// ConnectionsAdded counts exploration links established.
	ConnectionsAdded int
}

// Step runs one Perigee round (broadcasts, scoring, neighbor update),
// notifying observers and applying dynamics.
func (n *Network) Step() (RoundSummary, error) {
	rep, err := n.engine.Step()
	if err != nil {
		return RoundSummary{}, err
	}
	return RoundSummary{
		Round:              rep.Round,
		Blocks:             rep.Blocks,
		ConnectionsDropped: rep.Dropped,
		ConnectionsAdded:   rep.Added,
	}, nil
}

// Run executes the given number of rounds; observers and dynamics fire
// after every round.
func (n *Network) Run(rounds int) error {
	_, err := n.engine.Run(rounds)
	return err
}

// Rounds returns how many rounds have completed.
func (n *Network) Rounds() int { return n.engine.Round() }

// BroadcastDelays returns, for every node v, the paper's metric λ_v: the
// time for a block mined by v to reach nodes holding at least frac of the
// network's hash power on the current topology. frac must be in (0, 1].
func (n *Network) BroadcastDelays(frac float64) ([]time.Duration, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("perigee: hash-power fraction %v outside (0, 1]", frac)
	}
	return n.engine.Delays(frac, nil)
}

// Adjacency returns the current undirected communication graph as
// adjacency lists.
func (n *Network) Adjacency() [][]int { return n.engine.Adjacency() }

// OutNeighbors returns node v's current outgoing neighbor set.
func (n *Network) OutNeighbors(v int) []int { return n.engine.Table().OutNeighbors(v) }
