// Package paper owns the network the paper's §5 evaluation fixes:
// geographic latency, 8 outgoing and at most 20 incoming links, 50 ms
// validation, uniform power, 100-block rounds (one block for UCB) and a 2 s
// block interval. perigee.New, the scenario harness and the micro-benchmarks
// build their engines here, so a default changed once reaches all of them.
package paper

import (
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/hashpower"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/topology"
	"github.com/perigee-net/perigee/internal/workload"
)

const (
	// MaxIncoming caps each node's incoming links.
	MaxIncoming = 20
	// Validation is each node's block validation delay Δ_v.
	Validation = 50 * time.Millisecond
	// BlockInterval is the mean time between blocks of a workload run.
	BlockInterval = 2 * time.Second
)

// Geographic samples the geographic latency model (§3.1) for n nodes:
// the universe from root's "universe" stream and the per-link route noise
// from its "latency" stream.
func Geographic(n int, root *rng.RNG) (*geo.Universe, latency.Model, error) {
	universe, err := geo.SampleUniverse(n, root.Derive("universe"))
	if err != nil {
		return nil, nil, err
	}
	lat, err := latency.NewGeographic(universe, root.Derive("latency"))
	return universe, lat, err
}

// Random seeds the random topology for n nodes from r: each node dials
// core.DefaultParams' out-degree of uniformly random peers, none of which
// accepts more than MaxIncoming.
func Random(n int, r *rng.RNG) (*topology.Table, error) {
	return topology.Random(n, core.DefaultParams(core.Subset).OutDegree, MaxIncoming, r)
}

// Forward returns n validation delays of d each.
func Forward(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// ExponentialForward draws n validation delays from Exponential(mean).
func ExponentialForward(n int, mean time.Duration, r *rng.RNG) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.ExpFloat64() * float64(mean))
	}
	return out
}

// Spec describes an engine over Nodes nodes: a core.Config whose zero
// Params, Latency, Table, Power, Forward and Rand take the paper's defaults,
// drawn from Root.
type Spec struct {
	core.Config
	Nodes int
	Root  *rng.RNG
	// RoundBlocks, when positive, is |B| for zero Params. UCB keeps its
	// single-block rounds (§4.2.2) whatever it is.
	RoundBlocks int
	// Mods adjust the config, in order, once the defaults are in: an
	// ablation rescales the resolved Params, an adversary binding reads the
	// latency and the validation delays.
	Mods []func(*core.Config)
}

// Engine builds the engine s describes. Zero Params are Method's defaults.
// A nil Latency is Geographic from Root; a nil Table is random at the
// Params' out-degree, from Root's "topology" stream; nil Power is uniform;
// nil Forward is Validation for every node; a nil Rand is Root's "engine"
// stream.
func Engine(s Spec) (*core.Engine, error) {
	cfg := s.Config
	if cfg.Params == (core.Params{}) {
		cfg.Params = core.DefaultParams(cfg.Method)
		if s.RoundBlocks > 0 && cfg.Method != core.UCB {
			cfg.Params.RoundBlocks = s.RoundBlocks
		}
	}
	var err error
	if cfg.Latency == nil {
		if _, cfg.Latency, err = Geographic(s.Nodes, s.Root); err != nil {
			return nil, err
		}
	}
	if cfg.Table == nil {
		if cfg.Table, err = topology.Random(s.Nodes, cfg.Params.OutDegree, MaxIncoming, s.Root.Derive("topology")); err != nil {
			return nil, err
		}
	}
	if cfg.Power == nil {
		if cfg.Power, err = hashpower.Uniform(s.Nodes); err != nil {
			return nil, err
		}
	}
	if cfg.Forward == nil {
		cfg.Forward = Forward(s.Nodes, Validation)
	}
	if cfg.Rand == nil {
		cfg.Rand = s.Root.Derive("engine")
	}
	for _, mod := range s.Mods {
		mod(&cfg)
	}
	return core.NewEngine(cfg)
}

// RunWorkload drives e through trace for duration of simulated time, with
// a topology round every RoundBlocks block intervals. A zero blockInterval
// keeps the topology static.
func RunWorkload(e *core.Engine, trace workload.Trace, duration, blockInterval time.Duration) (*workload.Report, error) {
	return workload.Run(workload.Config{
		Engine:        e,
		Trace:         trace,
		Duration:      duration,
		RoundInterval: time.Duration(e.Params().RoundBlocks) * blockInterval,
	})
}
