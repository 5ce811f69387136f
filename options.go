package perigee

import (
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/adversary"
	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/paper"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/trace"
)

// Option configures a Network under construction; see New. Options
// compose: each axis of the simulated environment (latency, power,
// validation, topology, dynamics) is an independent pluggable model, so a
// new scenario is a new combination of options rather than a new library
// enum.
type Option func(*settings) error

// settings accumulates option values before the network is built: those
// the engine takes as they are go straight into spec. roundBlocks is zero
// until WithRoundBlocks sets it, since the installed selector supplies the
// default.
type settings struct {
	spec        paper.Spec
	seed        uint64
	outDegree   int
	roundBlocks int

	workloadProc  ArrivalProcess
	blockInterval time.Duration
	traceFile     string

	traceLevel      core.TraceLevel
	counterfactualK int

	selector      Selector
	power         PowerDist
	validation    ValidationDist
	dynamics      Dynamics
	observers     []Observer
	adversary     Adversary
	adversaryFrac float64
}

func defaultSettings() *settings {
	def := core.DefaultParams(core.Subset)
	return &settings{
		seed:      1,
		outDegree: def.OutDegree,
		selector:  SubsetSelector(def.Explore, def.Percentile),
	}
}

// WithSeed roots all randomness at the given seed; equal seeds reproduce
// runs bit-for-bit. Default 1.
func WithSeed(seed uint64) Option {
	return func(s *settings) error {
		s.seed = seed
		return nil
	}
}

// WithOutDegree sets the number of outgoing connections each node keeps
// (paper: 8).
func WithOutDegree(d int) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("perigee: out-degree %d must be positive", d)
		}
		s.outDegree = d
		return nil
	}
}

// WithRoundBlocks sets |B|, the number of blocks broadcast per round
// (paper: 100). Default 100, or 1 when a UCBSelector is installed: UCB's
// rounds span a single block.
func WithRoundBlocks(b int) Option {
	return func(s *settings) error {
		if b <= 0 {
			return fmt.Errorf("perigee: round blocks %d must be positive", b)
		}
		s.roundBlocks = b
		return nil
	}
}

// WithWorkers bounds the goroutines used for round broadcasts and delay
// evaluation. Zero (the default) means one worker per available core;
// results are bit-for-bit identical for any worker count.
func WithWorkers(w int) Option {
	return func(s *settings) error {
		s.spec.Workers = w
		return nil
	}
}

// WithObservationWindow bounds each node's per-round observation memory to
// the last w blocks of the round: selectors score an out-degree × w ring
// instead of the full out-degree × RoundBlocks matrix, and the skipped
// blocks' broadcasts are elided entirely (blocks are independent, so the
// retained observations are bit-for-bit identical to a dense run's last w
// rows). This is the memory/CPU lever for 100k+-node runs; windows below
// RoundBlocks trade observation count per round for speed the same way a
// smaller RoundBlocks would, without changing the round's mining schedule
// or exploration randomness. Zero (the default) keeps dense observations.
func WithObservationWindow(w int) Option {
	return func(s *settings) error {
		if w < 0 {
			return fmt.Errorf("perigee: observation window %d must be non-negative", w)
		}
		s.spec.ObservationWindow = w
		return nil
	}
}

// WithWorkload selects the arrival process RunWorkload uses to schedule
// block production: PoissonArrivals (the default), GammaArrivals,
// WeibullArrivals, or any custom ArrivalProcess. Ignored when
// WithTraceFile replays a recorded trace.
func WithWorkload(p ArrivalProcess) Option {
	return func(s *settings) error {
		if p == nil {
			return fmt.Errorf("perigee: nil arrival process")
		}
		s.workloadProc = p
		return nil
	}
}

// WithBlockInterval sets the mean block inter-arrival time for RunWorkload
// (default 2s). Shorter intervals relative to propagation delay raise the
// fork and stale-block rates; the interval also paces topology rounds
// (one per RoundBlocks × interval of simulated time).
func WithBlockInterval(d time.Duration) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("perigee: block interval %v must be positive", d)
		}
		s.blockInterval = d
		return nil
	}
}

// WithTraceFile replays a recorded arrival trace (a JSON TraceFile written
// by the forks scenario's RecordTrace option or the workload codec) in
// place of a generated process: RunWorkload consumes exactly the recorded
// events, reproducing the recorded run's workload bit-for-bit. The file's
// node count must match the network size.
func WithTraceFile(path string) Option {
	return func(s *settings) error {
		if path == "" {
			return fmt.Errorf("perigee: empty trace-file path")
		}
		s.traceFile = path
		return nil
	}
}

// WithSelector installs the neighbor-selection policy driving every
// node's per-round keep/drop/dial decision; see Selector. It accepts the
// built-in policies (SubsetSelector, VanillaSelector, UCBSelector,
// RandomSelector) and any custom implementation — the same value plugs
// into a live node via node.WithSelector. A built-in's arguments drive
// the engine and the decision trace alike: the trace scores neighbors at
// the built-in's percentile and is labelled with its paper name
// ("Perigee-Vanilla", ...), or "random" for RandomSelector. UCBSelector
// runs 1-block rounds unless WithRoundBlocks is set. A custom selector
// runs on the Subset defaults and is labelled "custom". Default
// SubsetSelector(2, 0.9), the paper's preferred rule.
func WithSelector(sel Selector) Option {
	return func(s *settings) error {
		if sel == nil {
			return fmt.Errorf("perigee: nil selector")
		}
		if e, ok := sel.(interface{ SelectorError() error }); ok {
			if err := e.SelectorError(); err != nil {
				return err
			}
		}
		s.selector = sel
		return nil
	}
}

// WithLatency plugs in a custom link-delay model (a measured matrix via
// LatencyMatrix, or any LatencyModel implementation). The model must cover
// at least the network size. Default: the paper's geographic model,
// re-sampled from the seed.
func WithLatency(m LatencyModel) Option {
	return func(s *settings) error {
		if m == nil {
			return fmt.Errorf("perigee: nil latency model")
		}
		s.spec.Latency = m
		return nil
	}
}

// WithPower plugs in the mining-power distribution. Default UniformPower.
func WithPower(p PowerDist) Option {
	return func(s *settings) error {
		if p == nil {
			return fmt.Errorf("perigee: nil power distribution")
		}
		s.power = p
		return nil
	}
}

// WithValidation plugs in the per-node block validation delay
// distribution. Default FixedValidation(50ms), the paper's setting.
func WithValidation(v ValidationDist) Option {
	return func(s *settings) error {
		if v == nil {
			return fmt.Errorf("perigee: nil validation distribution")
		}
		s.validation = v
		return nil
	}
}

// WithDynamics installs a per-round environment mutation hook (node churn,
// adversary injection, ...); see Dynamics.
func WithDynamics(d Dynamics) Option {
	return func(s *settings) error {
		if d == nil {
			return fmt.Errorf("perigee: nil dynamics")
		}
		s.dynamics = d
		return nil
	}
}

// WithObserver attaches a streaming round observer; see Observer. May be
// given multiple times — observers run in registration order.
func WithObserver(o Observer) Option {
	return func(s *settings) error {
		if o == nil {
			return fmt.Errorf("perigee: nil observer")
		}
		s.observers = append(s.observers, o)
		return nil
	}
}

// New builds a simulated Perigee network of the given size from composable
// options:
//
//	net, err := perigee.New(300,
//	    perigee.WithSeed(42),
//	    perigee.WithPower(perigee.PoolsPower(0.1, 0.9)),
//	    perigee.WithObserver(perigee.ObserverFunc(func(n *perigee.Network, s perigee.RoundStats) {
//	        log.Printf("round %d: %d connections swapped", s.Summary.Round, s.Summary.ConnectionsDropped)
//	    })),
//	)
//
// Every unset axis takes the paper's evaluation default: geographic
// latency, uniform hash power, 50ms fixed validation, a random topology
// with at most 20 incoming links per node, Subset scoring with out-degree
// 8 and 2 exploration links.
func New(nodes int, opts ...Option) (*Network, error) {
	if nodes < 10 {
		return nil, fmt.Errorf("perigee: need at least 10 nodes, got %d", nodes)
	}
	s := defaultSettings()
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("perigee: nil option")
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.outDegree >= nodes {
		return nil, fmt.Errorf("perigee: out-degree %d must be below the network size %d", s.outDegree, nodes)
	}

	spec := s.spec
	if spec.Latency != nil && spec.Latency.N() < nodes {
		return nil, fmt.Errorf("perigee: latency model covers %d nodes, need %d", spec.Latency.N(), nodes)
	}

	coreSel, params, label := engineSelector(s.selector)
	params.OutDegree = s.outDegree
	if s.roundBlocks > 0 {
		params.RoundBlocks = s.roundBlocks
	}

	if s.counterfactualK > 0 && s.traceLevel == core.TraceOff {
		return nil, fmt.Errorf("perigee: WithCounterfactualK(%d) requires WithTraceLevel", s.counterfactualK)
	}

	root := rng.New(s.seed)
	spec.Nodes, spec.Root = nodes, root
	spec.Params, spec.Selector = params, coreSel
	if s.power != nil {
		power, err := s.power.Power(nodes, root.Derive("power"))
		if err != nil {
			return nil, fmt.Errorf("perigee: sampling power: %w", err)
		}
		if len(power) != nodes {
			return nil, fmt.Errorf("perigee: power distribution returned %d values, want %d", len(power), nodes)
		}
		spec.Power = power
	}
	if s.validation != nil {
		forward, err := s.validation.Validation(nodes, root.Derive("validation"))
		if err != nil {
			return nil, fmt.Errorf("perigee: sampling validation delays: %w", err)
		}
		if len(forward) != nodes {
			return nil, fmt.Errorf("perigee: validation distribution returned %d values, want %d", len(forward), nodes)
		}
		spec.Forward = forward
	}

	net := &Network{
		observers:     s.observers,
		dynamics:      s.dynamics,
		workloadProc:  s.workloadProc,
		blockInterval: s.blockInterval,
		traceFile:     s.traceFile,
		workloadRand:  root.Derive("workload"),
	}
	if s.traceLevel > core.TraceOff {
		net.traceCollector = &trace.Collector{Selector: label}
		spec.Trace = core.TraceConfig{
			Level:           s.traceLevel,
			CounterfactualK: s.counterfactualK,
			Sink:            net.traceCollector,
		}
	}
	if len(s.observers) > 0 {
		spec.Observer = &observerBridge{net: net}
	}
	if s.dynamics != nil {
		spec.Dynamics = &dynamicsBridge{net: net}
		net.dynRand = root.Derive("dynamics")
	}
	// The binding reads the latency and validation delays, which the
	// builder may draw, so it runs as a mod; its error waits here.
	var bindErr error
	if s.adversary != nil {
		advs, err := adversary.Sample(nodes, s.adversaryFrac, root.Derive("adversary"))
		if err != nil {
			return nil, fmt.Errorf("perigee: sampling adversaries: %w", err)
		}
		spec.Mods = append(spec.Mods, func(cfg *core.Config) {
			bind, err := adversary.Bind(s.adversary, nodes, advs, cfg.Latency, cfg.Forward, root.Derive("adversary-strategy"))
			if err != nil {
				bindErr = fmt.Errorf("perigee: adversary %s: %w", s.adversary.Name(), err)
				return
			}
			// The binding owns the behavior tables and chains its per-round
			// agent after any user dynamics already configured.
			bind.Apply(cfg)
			net.adversaryEnv = bind.Env
		})
	}
	engine, err := paper.Engine(spec)
	if bindErr != nil {
		return nil, bindErr
	}
	if err != nil {
		return nil, err
	}
	net.engine = engine
	return net, nil
}
