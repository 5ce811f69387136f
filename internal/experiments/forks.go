package experiments

import (
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/parallel"
	"github.com/perigee-net/perigee/internal/workload"
)

// forkArm is one algorithm arm of the forks scenario: a legend label, the
// selector driving the timed topology rounds, and whether rounds fire at
// all (the static baseline never updates its random topology).
type forkArm struct {
	label  string
	method core.Method
	timed  bool
}

// Forks measures what slow propagation costs under a continuous-time
// blockchain workload: miners produce blocks as a Poisson process (mean
// Options.BlockInterval, default 2s) weighted by hash power, blocks race
// through the network, and every fork, stale block, and unit of
// mining-revenue skew is accounted per selector. Perigee's topology rounds
// fire every RoundBlocks*BlockInterval of simulated time; the run lasts
// Rounds such intervals. Compared arms: Perigee-Subset and Perigee-Vanilla
// (both adapting on timed rounds) against a static random topology.
//
// All arms of a trial replay the identical pre-materialized arrival trace,
// so differences in fork economics are purely topological — a paired
// comparison with no workload variance between arms. Options.TraceFile
// replays a recorded trace instead (Trials must be 1); Options.RecordTrace
// writes trial 0's trace for later replay. The λ series the rest of the
// suite reports are evaluated on each arm's final topology alongside.
func Forks(opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.TraceFile != "" && opt.Trials != 1 {
		return nil, fmt.Errorf("experiments: trace replay requires exactly 1 trial, got %d", opt.Trials)
	}
	interval := opt.blockInterval()
	roundInterval := time.Duration(opt.RoundBlocks) * interval
	duration := time.Duration(opt.Rounds) * roundInterval

	arms := []forkArm{
		{LabelSubset, core.Subset, true},
		{LabelVanilla, core.Vanilla, true},
		{LabelRandom, core.Subset, false}, // method unused: rounds never fire
	}

	// A trial's trace is shared verbatim by every arm. Materialization is
	// stateless in (Seed, trial), so the parallel (trial, arm) jobs can
	// each rebuild it; a replayed TraceFile is loaded once up front.
	var replay *workload.TraceFile
	if opt.TraceFile != "" {
		tf, err := workload.ReadTraceFile(opt.TraceFile)
		if err != nil {
			return nil, err
		}
		if tf.Nodes != opt.Nodes {
			return nil, fmt.Errorf("experiments: trace recorded for %d nodes, scenario has %d", tf.Nodes, opt.Nodes)
		}
		replay = tf
	}
	traceFor := func(e *env) (*workload.TraceFile, error) {
		if replay != nil {
			return replay, nil
		}
		gen, err := workload.NewPoisson(e.root.Derive("workload-trace"), e.power, interval)
		if err != nil {
			return nil, err
		}
		return workload.Materialize(gen, duration, opt.Nodes)
	}

	if opt.RecordTrace != "" {
		e, err := newEnv(opt, 0)
		if err != nil {
			return nil, err
		}
		tf, err := traceFor(e)
		if err != nil {
			return nil, err
		}
		if err := tf.WriteTraceFile(opt.RecordTrace); err != nil {
			return nil, err
		}
	}

	perSeries := make([][][]float64, len(arms))
	perReport := make([][]*workload.Report, len(arms))
	for i := range arms {
		perSeries[i] = make([][]float64, opt.Trials)
		perReport[i] = make([]*workload.Report, opt.Trials)
	}
	jobs := opt.Trials * len(arms)
	outer, innerOpt := splitWorkers(opt, jobs)
	err := parallel.ForEachIndexed(jobs, outer, func(_, j int) error {
		t, i := j/len(arms), j%len(arms)
		arm := arms[i]
		e, err := newEnv(innerOpt, t)
		if err != nil {
			return err
		}
		tf, err := traceFor(e)
		if err != nil {
			return err
		}
		tbl, err := e.buildRandom("forks-" + arm.label)
		if err != nil {
			return err
		}
		params := core.DefaultParams(arm.method)
		params.RoundBlocks = e.opt.RoundBlocks
		engine, err := core.NewEngine(core.Config{
			Method:  arm.method,
			Params:  params,
			Table:   tbl,
			Latency: e.lat,
			Forward: e.forward,
			Power:   e.power,
			Rand:    e.root.Derive("workload-engine-" + arm.label),
			Workers: e.opt.Workers,

			ObservationWindow: e.opt.ObservationWindow,
		})
		if err != nil {
			return err
		}
		ri := roundInterval
		if !arm.timed {
			ri = 0
		}
		rep, err := workload.Run(workload.Config{
			Engine:        engine,
			Trace:         tf.Trace(),
			Duration:      duration,
			RoundInterval: ri,
		})
		if err != nil {
			return fmt.Errorf("experiments: forks trial %d arm %s: %w", t, arm.label, err)
		}
		delays, err := engine.Delays(e.opt.Fraction, e.landmarks())
		if err != nil {
			return err
		}
		perSeries[i][t] = delaysToSortedMs(delays)
		perReport[i][t] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:      "forks",
		Title:   "Continuous-time workload: fork rate, stale blocks, revenue skew",
		Options: opt,
	}
	for i, arm := range arms {
		s, err := aggregate(arm.label, perSeries[i])
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
		ws := WorkloadSeries{Label: arm.label, Reports: perReport[i]}
		for _, rep := range perReport[i] {
			ws.MeanStaleRate += rep.StaleRate
			ws.MeanForkRate += rep.ForkRate
			ws.MeanRevenueSkew += rep.RevenueSkew
		}
		trials := float64(len(perReport[i]))
		ws.MeanStaleRate /= trials
		ws.MeanForkRate /= trials
		ws.MeanRevenueSkew /= trials
		res.Workloads = append(res.Workloads, ws)
	}

	subset, random := res.Workloads[0], res.Workloads[2]
	res.Notes = append(res.Notes, fmt.Sprintf(
		"stale rate: %s %.4f vs %s %.4f (fork rate %.4f vs %.4f, revenue skew %.4f vs %.4f)",
		subset.Label, subset.MeanStaleRate, random.Label, random.MeanStaleRate,
		subset.MeanForkRate, random.MeanForkRate,
		subset.MeanRevenueSkew, random.MeanRevenueSkew))
	return res, nil
}
