package perigee

import (
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/adversary"
	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/trace"
)

// Option configures a Network under construction; see New. Options
// compose: each axis of the simulated environment (latency, power,
// validation, topology, dynamics) is an independent pluggable model, so a
// new scenario is a new combination of options rather than a new library
// enum.
type Option func(*settings) error

// settings accumulates option values before the network is built. Explicit
// zero values are honored (the options API has no zero-value ambiguity):
// exploreSet/roundBlocksSet record whether the caller chose a value.
type settings struct {
	seed           uint64
	scoring        Scoring
	outDegree      int
	maxIncoming    int
	explore        int
	exploreSet     bool
	roundBlocks    int
	roundBlocksSet bool
	percentile     float64
	workers        int
	obsWindow      int

	workloadProc  ArrivalProcess
	blockInterval time.Duration
	traceFile     string

	traceLevel      core.TraceLevel
	counterfactualK int

	selector      Selector
	latency       LatencyModel
	power         PowerDist
	validation    ValidationDist
	seeder        TopologySeeder
	dynamics      Dynamics
	observers     []Observer
	adversary     Adversary
	adversaryFrac float64
}

func defaultSettings() *settings {
	return &settings{
		seed:        1,
		scoring:     ScoringSubset,
		outDegree:   8,
		maxIncoming: 20,
		percentile:  0.9,
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

// WithScoring selects the Perigee scoring variant — a thin constructor
// over the Selector API: WithScoring(s) is equivalent to installing the
// corresponding built-in (SubsetSelector, VanillaSelector, UCBSelector)
// configured with the network's explore count and percentile.
// WithSelector is the general option; use it for custom policies. Default
// ScoringSubset, the paper's preferred rule.
func WithScoring(scoring Scoring) Option {
	return func(s *settings) error {
		switch scoring {
		case ScoringVanilla, ScoringUCB, ScoringSubset:
			s.scoring = scoring
			return nil
		default:
			return fmt.Errorf("perigee: unknown scoring variant %d", int(scoring))
		}
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

// WithMaxIncoming caps incoming connections per node (paper: 20).
func WithMaxIncoming(m int) Option {
	return func(s *settings) error {
		if m <= 0 {
			return fmt.Errorf("perigee: incoming cap %d must be positive", m)
		}
		s.maxIncoming = m
		return nil
	}
}

// WithExplore sets the number of random exploration links per round
// (paper: 2). WithExplore(0) is an honored, explicit request for zero
// exploration. Default 2 (0 under ScoringUCB, which replaces neighbors
// through confidence-interval evictions instead).
func WithExplore(e int) Option {
	return func(s *settings) error {
		if e < 0 {
			return fmt.Errorf("perigee: explore count %d must be non-negative", e)
		}
		s.explore = e
		s.exploreSet = true
		return nil
	}
}

// WithRoundBlocks sets |B|, the number of blocks broadcast per round
// (paper: 100). Default 100 (1 under ScoringUCB, whose rounds span a
// single block).
func WithRoundBlocks(b int) Option {
	return func(s *settings) error {
		if b <= 0 {
			return fmt.Errorf("perigee: round blocks %d must be positive", b)
		}
		s.roundBlocks = b
		s.roundBlocksSet = true
		return nil
	}
}

// WithPercentile sets the scoring quantile in (0, 1] (paper: 0.9).
func WithPercentile(p float64) Option {
	return func(s *settings) error {
		if p <= 0 || p > 1 {
			return fmt.Errorf("perigee: percentile %v outside (0, 1]", p)
		}
		s.percentile = p
		return nil
	}
}

// WithWorkers bounds the goroutines used for round broadcasts and delay
// evaluation. Zero (the default) means one worker per available core;
// results are bit-for-bit identical for any worker count.
func WithWorkers(w int) Option {
	return func(s *settings) error {
		s.workers = w
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
		s.obsWindow = w
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
// node's per-round keep/drop/dial decision; see Selector. It is the
// general form of WithScoring and accepts both the built-in policies
// (SubsetSelector, VanillaSelector, UCBSelector, RandomSelector) and any
// custom implementation — the same value plugs into a live node via
// node.WithSelector. When a selector is installed it owns the decision
// policy: WithScoring, WithExplore, and WithPercentile no longer
// influence which neighbors are kept or how many fresh links are dialed.
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
		s.latency = m
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

// WithTopologySeeder plugs in the initial topology construction. Default
// RandomSeeder, the paper's random starting point.
func WithTopologySeeder(ts TopologySeeder) Option {
	return func(s *settings) error {
		if ts == nil {
			return fmt.Errorf("perigee: nil topology seeder")
		}
		s.seeder = ts
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
// latency, uniform hash power, 50ms fixed validation, a random topology,
// Subset scoring with out-degree 8 and 2 exploration links.
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

	root := rng.New(s.seed)

	lat := s.latency
	if lat == nil {
		var err error
		lat, err = GeographicLatency(nodes, s.seed)
		if err != nil {
			return nil, err
		}
	}
	if lat.N() < nodes {
		return nil, fmt.Errorf("perigee: latency model covers %d nodes, need %d", lat.N(), nodes)
	}

	seeder := s.seeder
	if seeder == nil {
		seeder = RandomSeeder()
	}
	seed, err := seeder.SeedTopology(nodes, s.outDegree, s.maxIncoming, root.Derive("topology"))
	if err != nil {
		return nil, fmt.Errorf("perigee: seeding topology: %w", err)
	}
	table, err := tableFromSeed(seed, nodes, s.outDegree, s.maxIncoming)
	if err != nil {
		return nil, err
	}

	powerDist := s.power
	if powerDist == nil {
		powerDist = UniformPower()
	}
	power, err := powerDist.Power(nodes, root.Derive("power"))
	if err != nil {
		return nil, fmt.Errorf("perigee: sampling power: %w", err)
	}
	if len(power) != nodes {
		return nil, fmt.Errorf("perigee: power distribution returned %d values, want %d", len(power), nodes)
	}

	validation := s.validation
	if validation == nil {
		validation = FixedValidation(50 * time.Millisecond)
	}
	forward, err := validation.Validation(nodes, root.Derive("validation"))
	if err != nil {
		return nil, fmt.Errorf("perigee: sampling validation delays: %w", err)
	}
	if len(forward) != nodes {
		return nil, fmt.Errorf("perigee: validation distribution returned %d values, want %d", len(forward), nodes)
	}

	params := core.DefaultParams(s.scoring.method())
	params.OutDegree = s.outDegree
	params.Percentile = s.percentile
	if s.exploreSet {
		params.Explore = s.explore
	}
	if s.roundBlocksSet {
		params.RoundBlocks = s.roundBlocks
	}

	// Resolve the decision policy: an explicit Selector wins; otherwise
	// the scoring variant builds the equivalent built-in selector, so the
	// engine is always selector-driven.
	var coreSel core.Selector
	if s.selector != nil {
		coreSel, err = toCoreSelector(s.selector)
	} else {
		coreSel, err = core.SelectorFromMethod(s.scoring.method(), params)
	}
	if err != nil {
		return nil, err
	}

	if s.counterfactualK > 0 && s.traceLevel == core.TraceOff {
		return nil, fmt.Errorf("perigee: WithCounterfactualK(%d) requires WithTraceLevel", s.counterfactualK)
	}

	net := &Network{
		scoring:       s.scoring,
		observers:     s.observers,
		dynamics:      s.dynamics,
		workloadProc:  s.workloadProc,
		blockInterval: s.blockInterval,
		traceFile:     s.traceFile,
		workloadRand:  root.Derive("workload"),
	}
	if s.traceLevel > core.TraceOff {
		net.traceCollector = &trace.Collector{Selector: s.scoring.method().String()}
	}
	cfg := core.Config{
		Method:   s.scoring.method(),
		Params:   params,
		Selector: coreSel,
		Table:    table,
		Latency:  lat,
		Forward:  forward,
		Power:    power,
		Rand:     root.Derive("engine"),
		Workers:  s.workers,

		ObservationWindow: s.obsWindow,
	}
	if net.traceCollector != nil {
		cfg.Trace = core.TraceConfig{
			Level:           s.traceLevel,
			CounterfactualK: s.counterfactualK,
			Sink:            net.traceCollector,
		}
	}
	if len(s.observers) > 0 {
		cfg.Observer = &observerBridge{net: net}
	}
	if s.dynamics != nil {
		cfg.Dynamics = &dynamicsBridge{net: net}
		net.dynRand = root.Derive("dynamics")
	}
	if s.adversary != nil {
		advs, err := adversary.Sample(nodes, s.adversaryFrac, root.Derive("adversary"))
		if err != nil {
			return nil, fmt.Errorf("perigee: sampling adversaries: %w", err)
		}
		bind, err := adversary.Bind(s.adversary, nodes, advs, lat, forward, root.Derive("adversary-strategy"))
		if err != nil {
			return nil, fmt.Errorf("perigee: adversary %s: %w", s.adversary.Name(), err)
		}
		// The binding owns the behavior tables and chains its per-round
		// agent after any user dynamics already configured.
		bind.Apply(&cfg)
		net.adversaryEnv = bind.Env
	}
	engine, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	net.engine = engine
	return net, nil
}
