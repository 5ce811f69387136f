package perigee

import (
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/adversary"
	"github.com/perigee-net/perigee/internal/latency"
)

// Adversary is a pluggable attack strategy (see the internal/adversary
// package documentation for the full model and a worked custom-strategy
// example). A strategy binds to one run through Setup, rewriting the
// behavior tables of the nodes it controls and returning the run's live
// hooks; the same value runs unmodified in the simulator
// (WithAdversary), the registered adversary-* scenarios, and — for its
// behavioral hooks — a live TCP node (node.WithAdversary).
//
// All hook signatures use only basic types plus the aliases below, so
// custom strategies need no internal imports:
//
//	type sleeper struct{}
//
//	func (sleeper) Name() string  { return "sleeper" }
//	func (sleeper) Brief() string { return "honest until round 5, then withholds" }
//
//	func (sleeper) Setup(env *perigee.AdversaryEnv, net *perigee.AdversaryNetwork) (perigee.AdversaryAgent, error) {
//	    return perigee.AdversaryAgent{
//	        AfterRound: func(ctl perigee.AdversaryControl, round int) error {
//	            if round == 5 {
//	                for _, a := range env.Adversaries {
//	                    net.Silent[a] = true
//	                }
//	            }
//	            return nil
//	        },
//	    }, nil
//	}
type Adversary = adversary.Strategy

// AdversaryEnv is the immutable context handed to a strategy's Setup:
// network size, the compromised node set, and a private deterministic
// random stream.
type AdversaryEnv = adversary.Env

// AdversaryNetwork is the mutable behavior surface of one adversarial
// run: per-node validation delays, free-riding and withholding tables,
// protocol-deviation marks, and a tamperable latency handle.
type AdversaryNetwork = adversary.Network

// AdversaryAgent is one run's live adversary hooks: observation
// tampering (offset matrices use Censored for blocks a neighbor never
// delivered) and the per-round action.
type AdversaryAgent = adversary.Agent

// AdversaryControl is the topology-mutation surface handed to an agent's
// per-round action.
type AdversaryControl = adversary.Control

// MutableLatency is a latency model whose delays a strategy may
// transform mid-run (severed or inflated links).
type MutableLatency = latency.MutableLatency

// LatencyLiarAdversary returns the timestamp-manipulation strategy:
// compromised nodes delay every relay by withhold while every victim's
// observed offset from them is multiplied by lieFactor in [0, 1) before
// scoring. The paper's defense is that the lie is bounded — a
// sufficiently slow liar still scores worse than honest neighbors.
func LatencyLiarAdversary(lieFactor float64, withhold time.Duration) Adversary {
	return adversary.NewLatencyLiar(lieFactor, withhold)
}

// WithholdingRelayAdversary returns the graded free-riding strategy: a
// neverFrac share of the compromised nodes never relay (generalizing the
// Silent flag); the rest relay after an extra delay.
func WithholdingRelayAdversary(delay time.Duration, neverFrac float64) Adversary {
	return adversary.NewWithholdingRelay(delay, neverFrac)
}

// SybilFloodAdversary returns the connection-exhaustion strategy: silent
// compromised identities dial up to dialsPerRound fresh honest victims
// after every round, eating the network's incoming capacity.
func SybilFloodAdversary(dialsPerRound int) Adversary {
	return adversary.NewSybilFlood(dialsPerRound)
}

// EclipseBiasAdversary returns the neighborhood-capture strategy:
// compromised nodes validate instantly, earning over-representation in
// honest neighbor sets. attackRound 0 keeps them "honestly fast"
// forever; attackRound r > 0 flips them silent after round r.
func EclipseBiasAdversary(attackRound int) Adversary {
	return adversary.NewEclipseBias(attackRound)
}

// RegionalPartitionAdversary returns the infrastructure-level strategy:
// after round activateRound, every link crossing one of groups
// contiguous index-group boundaries has its latency multiplied by factor.
func RegionalPartitionAdversary(groups, activateRound int, factor float64) Adversary {
	return adversary.NewRegionalPartition(groups, activateRound, factor)
}

// Adversaries lists one default-parameter instance of every built-in
// strategy.
func Adversaries() []Adversary { return adversary.Builtins() }

// WithAdversary installs an attack strategy over a fraction of the
// network: a uniform random fraction-share of the nodes (drawn from the
// network seed) is handed to the strategy, whose Setup rewrites their
// behavior before the first round and whose agent hooks run while the
// protocol does. The strategy composes with the other options — the
// selector still drives every honest node's decisions, observers still
// see every round, and any WithDynamics hook runs before the adversary
// acts each round.
func WithAdversary(a Adversary, fraction float64) Option {
	return func(s *settings) error {
		if a == nil {
			return fmt.Errorf("perigee: nil adversary strategy")
		}
		if fraction < 0 || fraction >= 1 {
			return fmt.Errorf("perigee: adversary fraction %v outside [0, 1)", fraction)
		}
		s.adversary = a
		s.adversaryFrac = fraction
		return nil
	}
}

// AdversaryNodes returns the node indices under adversary control (nil
// when the network was built without WithAdversary). The slice is a
// copy, in the order the adversary set was sampled.
func (n *Network) AdversaryNodes() []int {
	if n.adversaryEnv == nil {
		return nil
	}
	return append([]int(nil), n.adversaryEnv.Adversaries...)
}
