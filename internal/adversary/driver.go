package adversary

import (
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
)

// Binding is one run's bound adversary: the environment, the behavior
// tables (already rewritten by the strategy's Setup), and the live agent.
// Drivers feed the tables and hooks into their engine configuration; the
// backing slices are shared between Binding and engine on purpose, so an
// agent mutating them between rounds changes live behavior.
type Binding struct {
	// Env is the run's adversary environment.
	Env *Env
	// Net holds the behavior tables the engine must run with.
	Net *Network
	// Agent holds the run's live hooks (possibly zero).
	Agent Agent
}

// Bind prepares a strategy for one engine run: it validates the adversary
// set, copies the honest behavior tables (so one trial's arms never see
// each other's mutations), wraps the latency model in a latency.MutableLatency,
// and runs the strategy's Setup. forward is the honest per-node
// validation delay table; it is copied, never mutated.
func Bind(s Strategy, n int, adversaries []int, lat latency.Model, forward []time.Duration, r *rng.RNG) (*Binding, error) {
	if s == nil {
		return nil, fmt.Errorf("adversary: nil strategy")
	}
	if n <= 0 {
		return nil, fmt.Errorf("adversary: network size %d must be positive", n)
	}
	if len(forward) != n {
		return nil, fmt.Errorf("adversary: forward delays cover %d nodes, want %d", len(forward), n)
	}
	if lat == nil {
		return nil, fmt.Errorf("adversary: nil latency model")
	}
	if r == nil {
		return nil, fmt.Errorf("adversary: nil rng")
	}
	isAdv := make([]bool, n)
	for _, a := range adversaries {
		if a < 0 || a >= n {
			return nil, fmt.Errorf("adversary: node %d out of range (n=%d)", a, n)
		}
		if isAdv[a] {
			return nil, fmt.Errorf("adversary: node %d listed twice", a)
		}
		isAdv[a] = true
	}
	env := &Env{
		N:           n,
		Adversaries: append([]int(nil), adversaries...),
		IsAdversary: isAdv,
		Rand:        r,
	}
	net := &Network{
		Forward:    append([]time.Duration(nil), forward...),
		Silent:     make([]bool, n),
		RelayDelay: make([]time.Duration, n),
		Frozen:     make([]bool, n),
		Latency:    latency.NewMutableLatency(lat),
	}
	agent, err := s.Setup(env, net)
	if err != nil {
		return nil, err
	}
	return &Binding{Env: env, Net: net, Agent: agent}, nil
}

// Apply writes the binding into an engine configuration: behavior tables,
// the (wrapped) latency model, the observation-tamper hook, and the
// per-round agent chained after any dynamics already configured.
func (b *Binding) Apply(cfg *core.Config) {
	cfg.Latency = b.Net.Latency
	cfg.Forward = b.Net.Forward
	cfg.Silent = b.Net.Silent
	cfg.RelayDelay = b.Net.RelayDelay
	cfg.Frozen = b.Net.Frozen
	cfg.Tamper = b.Agent.TamperObservations
	if b.Agent.AfterRound != nil {
		prior := cfg.Dynamics
		after := b.Agent.AfterRound
		cfg.Dynamics = core.DynamicsFunc(func(e *core.Engine, round int) error {
			if prior != nil {
				if err := prior.AfterRound(e, round); err != nil {
					return err
				}
			}
			// The adversary acts last each round, after honest dynamics
			// (churn, joins) have settled.
			return after(EngineControl(e), round)
		})
	}
}

// engineControl adapts a core.Engine to the Control surface.
type engineControl struct {
	e *core.Engine
}

// EngineControl wraps an engine as the Control handed to agents.
func EngineControl(e *core.Engine) Control { return engineControl{e: e} }

func (c engineControl) N() int                   { return c.e.N() }
func (c engineControl) OutDegree(v int) int      { return c.e.Table().OutDegree(v) }
func (c engineControl) OutNeighbors(v int) []int { return c.e.Table().OutNeighbors(v) }
func (c engineControl) HasOut(v, u int) bool     { return c.e.Table().HasOut(v, u) }
func (c engineControl) Connect(v, u int) error   { return c.e.Table().Connect(v, u) }
func (c engineControl) Disconnect(v, u int) error {
	return c.e.Table().Disconnect(v, u)
}
func (c engineControl) InvalidateNetwork() { c.e.InvalidateNetworkCache() }
