// Package experiments reproduces every figure of the paper's evaluation
// (§5) plus the §6 extension studies and ablation sweeps, all exposed as
// registered Scenarios: shared trial machinery, a thread-safe registry
// (Register/Scenarios/Run) that the perigee facade and cmd/perigee-sim
// dispatch through, and text/JSON rendering of the series the paper
// plots.
//
// Every engine scenario runs its arms through one driver, runTrials: each
// (trial, arm) job samples the trial's network, applies the scenario's
// setup and runs the arm, and the driver collects the per-trial values and
// the traced arms' regret. Where a static reference is cheap beside its
// Perigee run (Convergence, Scale, Eclipse, Freeride, Figure 5), one arm
// computes both on the trial's env, so the engine keeps the trial's whole
// worker share. Figure 1 and the theorem sweeps, which need no
// network, share one stretch pipeline (stretchSweep).
package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/hashpower"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/netsim"
	"github.com/perigee-net/perigee/internal/paper"
	"github.com/perigee-net/perigee/internal/parallel"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/topology"
	"github.com/perigee-net/perigee/internal/trace"
	"github.com/perigee-net/perigee/internal/workload"
)

// Options configure an experiment run. The zero value is not valid; use
// DefaultOptions (paper scale) or ShortOptions (CI scale).
type Options struct {
	// Nodes is the network size (paper: 1000).
	Nodes int
	// Trials is the number of independent repetitions with re-sampled link
	// latencies (paper: 3).
	Trials int
	// Rounds is the number of Perigee rounds for Vanilla/Subset; UCB runs
	// Rounds*RoundBlocks single-block rounds so every variant sees the
	// same number of blocks.
	Rounds int
	// RoundBlocks is |B| for Vanilla/Subset (paper: 100).
	RoundBlocks int
	// Fraction is the hash-power coverage defining λ_v (paper: 0.9).
	Fraction float64
	// Seed roots all randomness.
	Seed uint64
	// MeanValidation is the mean per-node block validation delay
	// (paper: 50 ms).
	MeanValidation time.Duration
	// Validation selects how per-node validation delays are drawn.
	Validation ValidationModel
	// AdversaryFraction is the population share under adversary control in
	// the adversarial scenarios (eclipse and the adversary-* family). Zero
	// means the historical default of 0.15; explicit values must lie in
	// (0, 1).
	AdversaryFraction float64
	// CaptureThreshold is the adversarial out-slot share at which an
	// honest node counts as eclipsed in the capture statistics. Zero means
	// the historical default of 1 (every outgoing slot adversarial);
	// explicit values must lie in (0, 1].
	CaptureThreshold float64
	// Workers bounds the goroutines used to run trials and algorithm arms
	// concurrently, and is forwarded to every protocol engine for in-round
	// broadcast parallelism. Zero (or negative) means one worker per
	// available core. Results are bit-for-bit identical for any worker
	// count: every trial derives its RNG streams statelessly from
	// (Seed, trial index), so no stream depends on execution order.
	Workers int
	// LambdaSources, when positive and below Nodes, evaluates λ from that
	// many landmark sources (a fixed per-trial random sample) instead of
	// all n — turning each evaluation pass from n floods into k, the
	// lever that makes per-round convergence tracking affordable at 100k+
	// nodes. The landmark set is derived statelessly from the trial seed,
	// so successive rounds and every arm of every scenario (engine arms,
	// static topologies and the ideal bound alike) are compared on
	// identical sources (the adversarial scenarios draw them from the
	// honest nodes). The sorted λ series then has k entries; its
	// percentiles are estimators of the full-population ones (see the
	// error-bound test in scale_test.go). Zero evaluates all nodes, the
	// paper's exact protocol.
	LambdaSources int
	// ObservationWindow bounds per-node observation memory to the last w
	// blocks of each round; forwarded to core.Config.ObservationWindow.
	// Zero keeps dense observations.
	ObservationWindow int
	// BlockInterval is the mean block inter-arrival time for the
	// continuous-time workload scenarios ("forks"). Zero means the
	// default of 2s; topology rounds then span RoundBlocks*BlockInterval
	// of simulated time and the run lasts Rounds such intervals.
	BlockInterval time.Duration
	// TraceFile, when set, replays a recorded arrival trace (see
	// internal/workload's TraceFile codec) instead of generating a
	// Poisson workload. Replay pins the exact block schedule, so it
	// requires Trials == 1. Ignored by the non-workload scenarios.
	TraceFile string
	// RecordTrace, when set, writes trial 0's consumed arrival trace to
	// the given path, ready for TraceFile replay. Ignored by the
	// non-workload scenarios.
	RecordTrace string
	// TraceLevel enables decision tracing on every engine arm of every
	// scenario (0 = off, 1 = decisions, 2 = full inputs; see
	// core.TraceLevel). The traced records are reduced to per-round regret
	// summaries on Result.Regret, one per arm label, and streamed to
	// TraceObserver when set. Arms that never run an engine round (static
	// random, geographic and Kademlia topologies, the ideal bound) have
	// nothing to trace.
	TraceLevel int
	// CounterfactualK, when positive, evaluates up to K rejected
	// alternatives per traced decision against the following round's
	// broadcasts (see core.TraceConfig.CounterfactualK). Requires
	// TraceLevel ≥ 1.
	CounterfactualK int
	// RoundObserver, when non-nil, receives the RoundEvent of every engine
	// arm of every scenario as it completes, labeled with the arm's series
	// label (the engine arm's label where a scenario has no per-arm
	// series) and the trial. Runtime-only: it is excluded from Hash and
	// JSON, and may be called concurrently from different (trial, arm)
	// jobs — events within one (arm, trial) pair arrive in round order,
	// but the interleaving across pairs is schedule-dependent, so
	// consumers must lock and group by (arm, trial).
	RoundObserver func(arm string, trial int, ev core.RoundEvent) `json:"-"`
	// TraceObserver, when non-nil, receives every trace record as it is
	// emitted (the streaming path the experiment service uses). Runtime-
	// only, excluded from Hash and JSON; same concurrency contract as
	// RoundObserver.
	TraceObserver func(rec trace.Record) `json:"-"`
}

// ValidationModel selects the per-node validation delay distribution.
type ValidationModel int

const (
	// ValidationFixed gives every node exactly MeanValidation, the paper's
	// §5 setting ("each node has a mean block processing time of 50 ms").
	// With a common processing time, Figure 4(a)'s trend emerges: as
	// validation dominates, hop count dictates delay and Perigee's
	// advantage over random vanishes.
	ValidationFixed ValidationModel = iota
	// ValidationExponential draws each node's delay from Exponential(mean)
	// — the heterogeneous-processing-power extension motivated in §1.
	// Perigee additionally learns to route around slow validators, so its
	// advantage grows (rather than shrinks) with the validation scale; the
	// ablation bench quantifies this.
	ValidationExponential
)

// DefaultOptions mirrors the paper's evaluation scale.
func DefaultOptions() Options {
	return Options{
		Nodes:          1000,
		Trials:         3,
		Rounds:         30,
		RoundBlocks:    100,
		Fraction:       0.9,
		Seed:           2020,
		MeanValidation: paper.Validation,
	}
}

// ShortOptions is a scaled-down configuration for tests and quick smoke
// runs. 300 nodes is the smallest scale at which all of the paper's
// qualitative orderings (including geographic < random) manifest reliably.
func ShortOptions() Options {
	return Options{
		Nodes:          300,
		Trials:         1,
		Rounds:         10,
		RoundBlocks:    50,
		Fraction:       0.9,
		Seed:           2020,
		MeanValidation: paper.Validation,
	}
}

func (o Options) validate() error {
	for _, f := range fields {
		if err := f.check(f.in(&o)); err != nil {
			return err
		}
	}
	if o.CounterfactualK > 0 && o.TraceLevel == 0 {
		return fmt.Errorf("experiments: counterfactual k %d requires trace level ≥ 1", o.CounterfactualK)
	}
	return nil
}

// Validate checks the options without running anything — the up-front
// check CLIs and the experiment service run before accepting a job.
func Validate(o Options) error { return o.validate() }

// adversaryFraction resolves the adversary share, mapping the zero value
// to the historical eclipse default.
func (o Options) adversaryFraction() float64 {
	if o.AdversaryFraction == 0 {
		return defaultAdversaryFraction
	}
	return o.AdversaryFraction
}

// captureThreshold resolves the eclipse capture threshold, mapping the
// zero value to the historical "every slot adversarial" rule.
func (o Options) captureThreshold() float64 {
	if o.CaptureThreshold == 0 {
		return 1
	}
	return o.CaptureThreshold
}

// Series is one curve of a figure: per-node-rank delays (ms, ascending)
// aggregated across trials.
type Series struct {
	// Label names the algorithm as in the paper's legend.
	Label string
	// Mean[i] is the i-th smallest per-source delay (ms), averaged over
	// trials.
	Mean []float64
	// Std[i] is the cross-trial standard deviation at rank i (zero with
	// one trial).
	Std []float64
}

// Median returns the series' middle value, the figure's headline number.
func (s Series) Median() float64 {
	return stats.Percentile(s.Mean, 0.5)
}

// Result is the output of one experiment.
type Result struct {
	// ID is the experiment identifier ("figure3a", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Series holds one curve per algorithm.
	Series []Series
	// Notes carries derived observations (improvement ratios etc.).
	Notes []string
	// Histograms (Figure 5 only) maps algorithm label to its converged
	// edge-latency histogram.
	Histograms map[string]*stats.Histogram
	// Workloads (continuous-time scenarios only) holds one fork-economics
	// summary per algorithm arm, in arm order.
	Workloads []WorkloadSeries `json:",omitempty"`
	// Regret (traced runs only: Options.TraceLevel > 0) holds one
	// per-round counterfactual-regret summary per traced engine arm,
	// merged across trials, in arm order.
	Regret []*trace.Summary `json:",omitempty"`
	// Options echoes the configuration that produced the result.
	Options Options
}

// WorkloadSeries is one arm's continuous-time workload results: the full
// per-trial reports plus cross-trial means of the headline rates.
type WorkloadSeries struct {
	// Label names the algorithm as in the paper's legend.
	Label string `json:"label"`
	// Reports holds the per-trial fork-economics reports.
	Reports []*workload.Report `json:"reports"`
	// MeanStaleRate, MeanForkRate, and MeanRevenueSkew average the
	// corresponding per-trial report fields.
	MeanStaleRate   float64 `json:"mean_stale_rate"`
	MeanForkRate    float64 `json:"mean_fork_rate"`
	MeanRevenueSkew float64 `json:"mean_revenue_skew"`
}

// SeriesByLabel returns the named series or an error.
func (r *Result) SeriesByLabel(label string) (Series, error) {
	for _, s := range r.Series {
		if s.Label == label {
			return s, nil
		}
	}
	return Series{}, fmt.Errorf("experiments: no series %q in %s", label, r.ID)
}

// splitWorkers divides the configured worker budget between an outer
// fan-out over jobs and the engines running inside each job, so nested
// pools stay at O(total) goroutines instead of O(total²): outer jobs get
// min(total, jobs) workers and each job's engines get the remaining
// total/outer share. Worker counts never affect results, only scheduling.
func splitWorkers(opt Options, jobs int) (outer int, inner Options) {
	total := parallel.Workers(opt.Workers)
	outer = total
	if outer > jobs {
		outer = jobs
	}
	if outer < 1 {
		outer = 1
	}
	// Ceil division: slight oversubscription beats idling total%outer
	// cores for the whole run (e.g. 3 trials on 8 cores → 3×3, not 3×2).
	inner = opt
	inner.Workers = (total + outer - 1) / outer
	if inner.Workers < 1 {
		inner.Workers = 1
	}
	return outer, inner
}

// env bundles one trial's sampled network.
type env struct {
	opt      Options
	trial    int
	universe *geo.Universe
	lat      latency.Model
	forward  []time.Duration
	power    []float64
	root     *rng.RNG
	pinned   [][2]int

	// sources are the trial's λ evaluation sources, ascending (see
	// pickSources): successive rounds and every arm of the trial are
	// compared on identical sources. adversarySet restricts them to honest
	// nodes.
	sources []int

	// collectors holds one trace collector per engine built in this env
	// while Options.TraceLevel is on, in build order (see regret).
	collectors []*trace.Collector
}

// newEnv samples a trial environment: universe, per-trial link latencies,
// per-node validation delays, and hash power (uniform unless the caller
// overrides it afterwards).
func newEnv(opt Options, trial int) (*env, error) {
	root := rng.New(opt.Seed).DeriveIndexed("trial", trial)
	universe, lat, err := paper.Geographic(opt.Nodes, root)
	if err != nil {
		return nil, err
	}
	power, err := hashpower.Uniform(opt.Nodes)
	if err != nil {
		return nil, err
	}
	e := &env{
		opt:      opt,
		trial:    trial,
		universe: universe,
		lat:      lat,
		power:    power,
		root:     root,
		forward:  sampleForward(opt.Nodes, opt.MeanValidation, opt.Validation, root.Derive("forward")),
	}
	e.pickSources(nil)
	return e, nil
}

// pickSources sets the env's λ sources to every node outside exclude or,
// with Options.LambdaSources set, to the first LambdaSources of them in the
// trial's landmark order — a permutation derived statelessly from the
// trial seed, so every arm of the trial picks the same landmarks.
func (e *env) pickSources(exclude []bool) {
	n, k := e.opt.Nodes, e.opt.LambdaSources
	var order []int
	if k > 0 && k < n {
		order = e.root.Derive("lambda-landmarks").Perm(n)
	} else {
		k = n
		order = make([]int, n)
		for v := range order {
			order[v] = v
		}
	}
	sources := make([]int, 0, k)
	for _, v := range order {
		if len(sources) == k {
			break
		}
		if exclude == nil || !exclude[v] {
			sources = append(sources, v)
		}
	}
	sort.Ints(sources)
	e.sources = sources
}

// sampleForward draws per-node validation delays according to the chosen
// model.
func sampleForward(n int, mean time.Duration, model ValidationModel, r *rng.RNG) []time.Duration {
	if model == ValidationExponential {
		return paper.ExponentialForward(n, mean, r)
	}
	return paper.Forward(n, mean)
}

// scaleForward returns a copy of ds with every element multiplied by f.
func scaleForward(ds []time.Duration, f float64) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = time.Duration(float64(d) * f)
	}
	return out
}

// delaysToSortedMs converts per-source λ values to an ascending ms series
// (the paper plots nodes in ascending delay order).
func delaysToSortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		if d == stats.InfDuration {
			out[i] = math.Inf(1)
		} else {
			out[i] = float64(d) / float64(time.Millisecond)
		}
	}
	sort.Float64s(out)
	return out
}

// static wraps tbl in an engine arm that never steps, so a fixed topology
// (plus the env's pinned edges) is scored on the same simulator and λ path
// as the protocol arms.
func (e *env) static(tbl *topology.Table) (*core.Engine, error) {
	engine, _, err := e.engine("static", "static", core.Subset, tbl)
	return engine, err
}

// evalTopology computes λ_v over a static table (plus the env's pinned
// edges) for the env's λ sources, through a static engine arm.
func (e *env) evalTopology(tbl *topology.Table) ([]float64, error) {
	engine, err := e.static(tbl)
	if err != nil {
		return nil, err
	}
	return e.lambda(engine, e.opt.Fraction)
}

// evalIdeal computes λ_v for the env's λ sources on the fully-connected
// lower bound: one hop from the source to everyone.
func (e *env) evalIdeal() ([]float64, error) {
	delays := make([]time.Duration, len(e.sources))
	err := parallel.ForEachIndexed(len(e.sources), e.opt.Workers, func(_, i int) error {
		arrival := netsim.IdealArrival(e.lat, e.sources[i])
		var err error
		delays[i], err = netsim.DelayToFraction(arrival, e.power, e.opt.Fraction)
		return err
	})
	if err != nil {
		return nil, err
	}
	return delaysToSortedMs(delays), nil
}

// buildRandom seeds the standard random topology for this environment.
func (e *env) buildRandom(label string) (*topology.Table, error) {
	return paper.Random(e.opt.Nodes, e.root.Derive("random-topology-"+label))
}

// geographic builds the env's geography-aware topology.
func (e *env) geographic() (*topology.Table, error) {
	return topology.Geographic(e.universe, 8, 4, paper.MaxIncoming, e.root.Derive("geo-topology"))
}

// kademlia builds the env's Kademlia topology.
func (e *env) kademlia() (*topology.Table, error) {
	return topology.Kademlia(e.opt.Nodes, 8, paper.MaxIncoming, e.root.Derive("kad-topology"))
}

// engine builds one scenario arm's protocol engine over tbl — the only
// engine constructor in the package, so every arm gets every run option:
// method's default params at Options.RoundBlocks (UCB keeps its
// single-block rounds), the env's latency, validation and power tables,
// the env's pinned edges (pinned into tbl), the RNG stream named stream,
// Workers, ObservationWindow, the RoundObserver labelled (arm, trial) and,
// when Options.TraceLevel is on, a trace collector labelled arm (see
// regret). mods then adjust the
// config: ablation params, a selector, free-riders, upload serialization,
// an adversary binding. The returned round budget spends the run's
// Rounds × RoundBlocks blocks in rounds of the final params' length (at
// least one), so every variant sees the same number of blocks.
func (e *env) engine(arm, stream string, method core.Method, tbl *topology.Table, mods ...func(*core.Config)) (*core.Engine, int, error) {
	for _, p := range e.pinned {
		if err := tbl.Pin(p[0], p[1]); err != nil {
			return nil, 0, err
		}
	}
	spec := paper.Spec{
		Config: core.Config{
			Method:  method,
			Table:   tbl,
			Latency: e.lat,
			Forward: e.forward,
			Power:   e.power,
			Rand:    e.root.Derive(stream),
			Workers: e.opt.Workers,

			ObservationWindow: e.opt.ObservationWindow,
		},
		RoundBlocks: e.opt.RoundBlocks,
		Mods:        mods,
	}
	if emit := e.opt.RoundObserver; emit != nil {
		trial := e.trial
		spec.Observer = core.ObserverFunc(func(ev core.RoundEvent) { emit(arm, trial, ev) })
	}
	if e.opt.TraceLevel > 0 {
		collector := &trace.Collector{Selector: arm, Trial: e.trial, OnRecord: e.opt.TraceObserver}
		e.collectors = append(e.collectors, collector)
		spec.Trace = core.TraceConfig{
			Level:           core.TraceLevel(e.opt.TraceLevel),
			CounterfactualK: e.opt.CounterfactualK,
			Sink:            collector,
		}
	}
	engine, err := paper.Engine(spec)
	if err != nil {
		return nil, 0, err
	}
	return engine, max(e.opt.Rounds*e.opt.RoundBlocks/engine.Params().RoundBlocks, 1), nil
}

// runArm builds the arm's engine (see engine), runs its round budget and
// returns the final λ series along with the engine (for graph inspection,
// e.g. Figure 5, or further metrics).
func (e *env) runArm(arm, stream string, method core.Method, tbl *topology.Table, mods ...func(*core.Config)) ([]float64, *core.Engine, error) {
	engine, rounds, err := e.engine(arm, stream, method, tbl, mods...)
	if err != nil {
		return nil, nil, err
	}
	if _, err := engine.Run(rounds); err != nil {
		return nil, nil, err
	}
	series, err := e.lambda(engine, e.opt.Fraction)
	return series, engine, err
}

// runPerigee seeds a random topology and runs method on it to convergence
// as the arm labelled arm.
func (e *env) runPerigee(arm string, method core.Method) ([]float64, *core.Engine, error) {
	tbl, err := e.buildRandom(method.String())
	if err != nil {
		return nil, nil, err
	}
	return e.runArm(arm, "engine-"+method.String(), method, tbl)
}

// perigeeAlgo is the figure arm that runs method to convergence under
// label.
func perigeeAlgo(label string, method core.Method) algo {
	return algo{label, func(e *env) ([]float64, error) {
		s, _, err := e.runPerigee(label, method)
		return s, err
	}}
}

// staticAlgo is the figure arm that scores the fixed topology build makes.
func staticAlgo(label string, build func(*env) (*topology.Table, error)) algo {
	return algo{label, func(e *env) ([]float64, error) {
		tbl, err := build(e)
		if err != nil {
			return nil, err
		}
		return e.evalTopology(tbl)
	}}
}

// The figure arms several comparisons share: the static random baseline,
// the geographic topology and the fully-connected lower bound. A one-off
// static arm, such as Figure 3's Kademlia, calls staticAlgo in place.
var (
	randomAlgo = staticAlgo(LabelRandom, func(e *env) (*topology.Table, error) {
		return e.buildRandom(LabelRandom)
	})
	geographicAlgo = staticAlgo(LabelGeographic, (*env).geographic)
	idealAlgo      = algo{LabelIdeal, (*env).evalIdeal}
)

// lambda evaluates λ_v at coverage frac on engine's current topology from
// the env's λ sources, as an ascending ms series — the only place the
// package reads λ off an engine, so every arm of a result covers the same
// nodes.
func (e *env) lambda(engine *core.Engine, frac float64) ([]float64, error) {
	delays, err := engine.Delays(frac, e.sources)
	if err != nil {
		return nil, err
	}
	return delaysToSortedMs(delays), nil
}

// regret reduces the env's traced engines to regret summaries, in build
// order. An engine that never ran a round recorded nothing and is left out.
func (e *env) regret() []*trace.Summary {
	var out []*trace.Summary
	for _, c := range e.collectors {
		if recs := c.Records(); len(recs) > 0 {
			out = append(out, trace.Summarize(c.Selector, recs))
		}
	}
	return out
}

// mergeRegret merges the regret summaries of runTrials' jobs into one
// summary per selector, in order of first appearance.
func mergeRegret(runs ...[]*trace.Summary) []*trace.Summary {
	var order []string
	bySelector := map[string][]*trace.Summary{}
	for _, sums := range runs {
		for _, s := range sums {
			if _, ok := bySelector[s.Selector]; !ok {
				order = append(order, s.Selector)
			}
			bySelector[s.Selector] = append(bySelector[s.Selector], s)
		}
	}
	var out []*trace.Summary
	for _, sel := range order {
		out = append(out, trace.Merge(bySelector[sel]...))
	}
	return out
}

// aggregate folds per-trial series into a Series with cross-trial error
// bars.
func aggregate(label string, trials [][]float64) (Series, error) {
	mean, std, err := stats.AggregateSeries(trials)
	if err != nil {
		return Series{}, fmt.Errorf("aggregating %s: %w", label, err)
	}
	return Series{Label: label, Mean: mean, Std: std}, nil
}

// arm is one column of a scenario's (trial, arm) matrix: a label and the
// function that runs it on one trial's env and returns what the scenario
// keeps of that trial.
type arm[T any] struct {
	label string
	run   func(e *env) (T, error)
}

// algo is one curve of a figure: its per-trial value is the sorted delay
// series.
type algo = arm[[]float64]

// runTrials is the package's trial driver, the one way a scenario's arms
// run: every arm on every trial, out[arm][trial], with the traced engines'
// regret merged in job order. It validates opt, then fans the (trial, arm)
// jobs out over the worker pool. Each job samples its trial's env from
// scratch and applies setup (power distribution, latency overrides, pinned
// relay edges, ...): newEnv and setup derive every stream statelessly from
// (Seed, trial), so every arm of a trial sees the same network — exactly
// how the paper compares curves — arms never share mutable state, and the
// result is independent of scheduling. A job's error names the scenario id,
// the trial and the arm.
func runTrials[T any](opt Options, id string, setup func(*env) error, arms []arm[T]) ([][]T, []*trace.Summary, error) {
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}
	out := make([][]T, len(arms))
	for i := range out {
		out[i] = make([]T, opt.Trials)
	}
	jobs := opt.Trials * len(arms)
	perTrace := make([][]*trace.Summary, jobs)
	outer, innerOpt := splitWorkers(opt, jobs)
	err := parallel.ForEachIndexed(jobs, outer, func(_, j int) error {
		t, i := j/len(arms), j%len(arms)
		e, err := newEnv(innerOpt, t)
		if err == nil && setup != nil {
			err = setup(e)
		}
		if err == nil {
			out[i][t], err = arms[i].run(e)
		}
		if err != nil {
			return fmt.Errorf("experiments: %s trial %d arm %s: %w", id, t, arms[i].label, err)
		}
		perTrace[j] = e.regret()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, mergeRegret(perTrace...), nil
}

// runFigure runs the standard figure protocol through runTrials and folds
// each algorithm's trials into one Series.
func runFigure(opt Options, id, title string, setup func(*env) error, algos []algo) (*Result, error) {
	perAlgo, regret, err := runTrials(opt, id, setup, algos)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: id, Title: title, Options: opt, Regret: regret}
	for i, a := range algos {
		s, err := aggregate(a.label, perAlgo[i])
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
