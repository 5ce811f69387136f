// Package experiments reproduces every figure of the paper's evaluation
// (§5) plus the §6 extension studies and ablation sweeps, all exposed as
// registered Scenarios: shared trial machinery, a thread-safe registry
// (Register/Scenarios/Run) that the perigee facade and cmd/perigee-sim
// dispatch through, and text/JSON rendering of the series the paper
// plots.
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
	// all n — turning each evaluation pass from n Dijkstras into k, the
	// lever that makes per-round convergence tracking affordable at 100k+
	// nodes. The landmark set is derived statelessly from the trial seed,
	// so successive rounds (and algorithm arms sharing a trial) are
	// compared on identical sources. The sorted λ series then has k
	// entries; its percentiles are estimators of the full-population ones
	// (see the error-bound test in scale_test.go). Zero evaluates all
	// nodes, the paper's exact protocol.
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
	// TraceLevel enables decision tracing on every Perigee engine arm
	// (0 = off, 1 = decisions, 2 = full inputs; see core.TraceLevel). The
	// traced records are reduced to per-round regret summaries on
	// Result.Regret, and streamed to TraceObserver when set. Tracing
	// covers the arms driven through the shared figure harness
	// (runPerigee); arms that never run a Perigee engine (random,
	// geographic, ideal) have nothing to trace.
	TraceLevel int
	// CounterfactualK, when positive, evaluates up to K rejected
	// alternatives per traced decision against the following round's
	// broadcasts (see core.TraceConfig.CounterfactualK). Requires
	// TraceLevel ≥ 1.
	CounterfactualK int
	// RoundObserver, when non-nil, receives every engine arm's RoundEvent
	// as it completes, labeled with the arm and trial. Runtime-only: it is
	// excluded from Hash and JSON, and may be called concurrently from
	// different (trial, arm) jobs — events within one (arm, trial) pair
	// arrive in round order, but the interleaving across pairs is
	// schedule-dependent, so consumers must lock and group by (arm, trial).
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
		MeanValidation: 50 * time.Millisecond,
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
		MeanValidation: 50 * time.Millisecond,
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

// blockInterval resolves the workload block interval, mapping the zero
// value to the 2s default.
func (o Options) blockInterval() time.Duration {
	if o.BlockInterval == 0 {
		return 2 * time.Second
	}
	return o.BlockInterval
}

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
	frozen   []bool

	// traces accumulates one regret summary per traced engine run in this
	// env (populated by runPerigee when Options.TraceLevel is on).
	traces []*trace.Summary

	// evalSim is the trial's reusable evaluation simulator: built once via
	// netsim's prevalidated path and reconfigured in place when a different
	// (or mutated) table is evaluated. evalVer/evalTbl identify the
	// adjacency it currently reflects; evalAdj and evalArr are the reused
	// adjacency snapshot and per-worker arrival buffers.
	evalSim *netsim.Simulator
	evalTbl *topology.Table
	evalVer uint64
	evalAdj [][]int
	evalArr [][]time.Duration
	// evalSrc caches the trial's landmark source set (nil when λ is
	// evaluated from all nodes); see Options.LambdaSources.
	evalSrc []int
}

// newEnv samples a trial environment: universe, per-trial link latencies,
// per-node validation delays, and hash power (uniform unless the caller
// overrides it afterwards).
func newEnv(opt Options, trial int) (*env, error) {
	root := rng.New(opt.Seed).DeriveIndexed("trial", trial)
	universe, err := geo.SampleUniverse(opt.Nodes, root.Derive("universe"))
	if err != nil {
		return nil, err
	}
	lat, err := latency.NewGeographic(universe, root.Derive("latency"))
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
	return e, nil
}

// sampleForward draws per-node validation delays according to the chosen
// model.
func sampleForward(n int, mean time.Duration, model ValidationModel, r *rng.RNG) []time.Duration {
	out := make([]time.Duration, n)
	if mean == 0 {
		return out
	}
	for i := range out {
		switch model {
		case ValidationExponential:
			out[i] = time.Duration(r.ExpFloat64() * float64(mean))
		default:
			out[i] = mean
		}
	}
	return out
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

// simFor returns the env's reusable evaluation simulator positioned on
// tbl's current adjacency (plus the env's pinned edges). The table snapshot
// is rebuilt through netsim's prevalidated path — Table.Undirected output
// is symmetric and sorted by construction — and the simulator's CSR arrays
// are reconfigured in place, so evaluating the same unchanged table twice
// (or a table that evolves between evaluation passes, as the convergence
// experiment does every round) reuses one simulator for the whole trial.
func (e *env) simFor(tbl *topology.Table) (*netsim.Simulator, error) {
	ver := tbl.Version()
	if e.evalSim != nil && e.evalTbl == tbl && e.evalVer == ver {
		return e.evalSim, nil
	}
	e.evalAdj = tbl.UndirectedInto(e.evalAdj)
	adj := e.evalAdj
	if len(e.pinned) > 0 {
		adj = topology.MergeAdjacency(adj, e.pinned)
	}
	if e.evalSim == nil {
		sim, err := netsim.NewPrevalidated(netsim.Config{Adj: adj, Latency: e.lat, Forward: e.forward})
		if err != nil {
			return nil, err
		}
		e.evalSim = sim
	} else {
		// No InvalidateNetworkCache reaches this simulator, so it carries
		// no delay from one evaluated table to the next.
		e.evalSim.ForgetDelays()
		if err := e.evalSim.Reconfigure(adj); err != nil {
			return nil, err
		}
	}
	e.evalTbl, e.evalVer = tbl, ver
	return e.evalSim, nil
}

// landmarks returns the trial's λ evaluation sources: nil for the exact
// all-sources pass, or a cached uniform sample of LambdaSources distinct
// nodes. The sample is derived statelessly from the trial seed — it never
// consumes the trial's sequential streams, and repeated evaluations (every
// round of a convergence run, every arm sharing the trial) see the same
// landmark set, so series are comparable across rounds and algorithms.
func (e *env) landmarks() []int {
	k := e.opt.LambdaSources
	if k <= 0 || k >= e.opt.Nodes {
		return nil
	}
	if len(e.evalSrc) != k {
		perm := e.root.Derive("lambda-landmarks").Perm(e.opt.Nodes)
		e.evalSrc = append(e.evalSrc[:0], perm[:k]...)
		sort.Ints(e.evalSrc)
	}
	return e.evalSrc
}

// evalTopology computes λ_v over a static communication graph (plus the
// env's pinned edges) for every node — or only the trial's landmark
// sources when Options.LambdaSources is set. Sources are evaluated on the
// worker pool; the pooled analytic pass writes into per-worker arrival
// buffers.
func (e *env) evalTopology(tbl *topology.Table) ([]float64, error) {
	return e.evalTopologyAt(tbl, e.opt.Fraction)
}

// evalTopologyAt is evalTopology at an explicit coverage fraction.
func (e *env) evalTopologyAt(tbl *topology.Table, frac float64) ([]float64, error) {
	sim, err := e.simFor(tbl)
	if err != nil {
		return nil, err
	}
	sources := e.landmarks()
	count := e.opt.Nodes
	if sources != nil {
		count = len(sources)
	}
	workers := parallel.Workers(e.opt.Workers)
	if workers > count {
		workers = count
	}
	for len(e.evalArr) < workers {
		e.evalArr = append(e.evalArr, nil)
	}
	delays := make([]time.Duration, count)
	err = parallel.ForEachIndexed(count, workers, func(worker, i int) error {
		src := i
		if sources != nil {
			src = sources[i]
		}
		arrival, err := sim.ArrivalAnalyticInto(e.evalArr[worker], src)
		if err != nil {
			return err
		}
		e.evalArr[worker] = arrival
		delays[i], err = netsim.DelayToFraction(arrival, e.power, frac)
		return err
	})
	if err != nil {
		return nil, err
	}
	return delaysToSortedMs(delays), nil
}

// evalIdeal computes λ_v on the fully-connected lower bound: one hop from
// the source to everyone.
func (e *env) evalIdeal() ([]float64, error) {
	delays := make([]time.Duration, e.opt.Nodes)
	err := parallel.ForEachIndexed(e.opt.Nodes, e.opt.Workers, func(_, src int) error {
		arrival := netsim.IdealArrival(e.lat, src)
		var err error
		delays[src], err = netsim.DelayToFraction(arrival, e.power, e.opt.Fraction)
		return err
	})
	if err != nil {
		return nil, err
	}
	return delaysToSortedMs(delays), nil
}

// buildRandom seeds the standard random topology for this environment.
func (e *env) buildRandom(label string) (*topology.Table, error) {
	return topology.Random(e.opt.Nodes, 8, 20, e.root.Derive("random-topology-"+label))
}

// runPerigee seeds a random topology, runs the protocol to convergence,
// and returns the final sorted delay series along with the engine (for
// graph inspection, e.g. Figure 5).
func (e *env) runPerigee(method core.Method) ([]float64, *core.Engine, error) {
	tbl, err := e.buildRandom(method.String())
	if err != nil {
		return nil, nil, err
	}
	params := core.DefaultParams(method)
	rounds := e.opt.Rounds
	if method == core.UCB {
		// Same block budget as the |B|-block variants.
		rounds = e.opt.Rounds * e.opt.RoundBlocks
	} else {
		params.RoundBlocks = e.opt.RoundBlocks
	}
	var observer core.Observer
	if e.opt.RoundObserver != nil {
		arm, trial, emit := method.String(), e.trial, e.opt.RoundObserver
		observer = core.ObserverFunc(func(ev core.RoundEvent) { emit(arm, trial, ev) })
	}
	var collector *trace.Collector
	var traceCfg core.TraceConfig
	if e.opt.TraceLevel > 0 {
		collector = &trace.Collector{Selector: method.String(), Trial: e.trial, OnRecord: e.opt.TraceObserver}
		traceCfg = core.TraceConfig{
			Level:           core.TraceLevel(e.opt.TraceLevel),
			CounterfactualK: e.opt.CounterfactualK,
			Sink:            collector,
		}
	}
	engine, err := core.NewEngine(core.Config{
		Method:   method,
		Params:   params,
		Table:    tbl,
		Latency:  e.lat,
		Forward:  e.forward,
		Power:    e.power,
		Pinned:   e.pinned,
		Frozen:   e.frozen,
		Rand:     e.root.Derive("engine-" + method.String()),
		Workers:  e.opt.Workers,
		Observer: observer,

		ObservationWindow: e.opt.ObservationWindow,
		Trace:             traceCfg,
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := engine.Run(rounds); err != nil {
		return nil, nil, err
	}
	if collector != nil {
		e.traces = append(e.traces, trace.Summarize(collector.Selector, collector.Records()))
	}
	delays, err := engine.Delays(e.opt.Fraction, e.landmarks())
	if err != nil {
		return nil, nil, err
	}
	return delaysToSortedMs(delays), engine, nil
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

// algo is one curve of a figure: a label and the function producing its
// per-trial sorted delay series.
type algo struct {
	label string
	run   func(e *env) ([]float64, error)
}

// runFigure executes the standard figure protocol: for each trial, sample
// one environment, apply the figure-specific setup (power distribution,
// latency overrides, pinned relay edges, ...), then run every algorithm on
// that same network — exactly how the paper compares curves.
//
// Trials and algorithm arms fan out together over the worker pool as
// (trial, arm) jobs. Each job rebuilds its trial environment from scratch:
// newEnv and setup derive every stream statelessly from (Seed, trial), so
// two jobs of the same trial see identical networks, arms never share
// mutable state, and the per-(arm, trial) result matrix is independent of
// scheduling.
func runFigure(opt Options, id, title string, setup func(*env) error, algos []algo) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	perAlgo := make([][][]float64, len(algos))
	perTrace := make([][][]*trace.Summary, len(algos))
	for i := range perAlgo {
		perAlgo[i] = make([][]float64, opt.Trials)
		perTrace[i] = make([][]*trace.Summary, opt.Trials)
	}
	jobs := opt.Trials * len(algos)
	outer, innerOpt := splitWorkers(opt, jobs)
	err := parallel.ForEachIndexed(jobs, outer, func(_, j int) error {
		t, i := j/len(algos), j%len(algos)
		e, err := newEnv(innerOpt, t)
		if err != nil {
			return err
		}
		if setup != nil {
			if err := setup(e); err != nil {
				return fmt.Errorf("experiments: %s trial %d setup: %w", id, t, err)
			}
		}
		series, err := algos[i].run(e)
		if err != nil {
			return fmt.Errorf("experiments: %s trial %d algo %s: %w", id, t, algos[i].label, err)
		}
		perAlgo[i][t] = series
		perTrace[i][t] = e.traces
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{ID: id, Title: title, Options: opt}
	for i, a := range algos {
		s, err := aggregate(a.label, perAlgo[i])
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
		if opt.TraceLevel > 0 {
			var sums []*trace.Summary
			for _, ts := range perTrace[i] {
				sums = append(sums, ts...)
			}
			if merged := trace.Merge(sums...); merged != nil {
				res.Regret = append(res.Regret, merged)
			}
		}
	}
	return res, nil
}
