package experiments

import (
	"cmp"
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/paper"
	"github.com/perigee-net/perigee/internal/workload"
)

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
	// Validate before the trial check and the trace-file read below, so an
	// invalid run reports its validation error and reads no file.
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.TraceFile != "" && opt.Trials != 1 {
		return nil, fmt.Errorf("experiments: trace replay requires exactly 1 trial, got %d", opt.Trials)
	}
	interval := cmp.Or(opt.BlockInterval, paper.BlockInterval)
	roundInterval := time.Duration(opt.RoundBlocks) * interval
	duration := time.Duration(opt.Rounds) * roundInterval

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

	// An arm is a legend label, the selector driving the timed topology
	// rounds and their pace; the static baseline's rounds never fire.
	fork := func(label string, method core.Method, pace time.Duration) arm[forkTrial] {
		return arm[forkTrial]{label, func(e *env) (forkTrial, error) {
			var ft forkTrial
			tf, err := traceFor(e)
			if err != nil {
				return ft, err
			}
			if label == LabelSubset && e.trial == 0 && opt.RecordTrace != "" {
				if err := tf.WriteTraceFile(opt.RecordTrace); err != nil {
					return ft, err
				}
			}
			tbl, err := e.buildRandom("forks-" + label)
			if err != nil {
				return ft, err
			}
			engine, _, err := e.engine(label, "workload-engine-"+label, method, tbl)
			if err != nil {
				return ft, err
			}
			if ft.report, err = paper.RunWorkload(engine, tf.Trace(), duration, pace); err != nil {
				return ft, err
			}
			ft.lambda, err = e.lambda(engine, e.opt.Fraction)
			return ft, err
		}}
	}
	arms := []arm[forkTrial]{
		fork(LabelSubset, core.Subset, interval),
		fork(LabelVanilla, core.Vanilla, interval),
		fork(LabelRandom, core.Subset, 0), // method unused: rounds never fire
	}
	perArm, regret, err := runTrials(opt, "forks", nil, arms)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:      "forks",
		Title:   "Continuous-time workload: fork rate, stale blocks, revenue skew",
		Options: opt,
		Regret:  regret,
	}
	for i, a := range arms {
		lambdas := make([][]float64, opt.Trials)
		ws := WorkloadSeries{Label: a.label}
		for t, ft := range perArm[i] {
			lambdas[t] = ft.lambda
			ws.Reports = append(ws.Reports, ft.report)
			ws.MeanStaleRate += ft.report.StaleRate
			ws.MeanForkRate += ft.report.ForkRate
			ws.MeanRevenueSkew += ft.report.RevenueSkew
		}
		s, err := aggregate(a.label, lambdas)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
		trials := float64(opt.Trials)
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

// forkTrial is one forks arm's trial: its fork-economics report and the λ
// series of its final topology.
type forkTrial struct {
	report *workload.Report
	lambda []float64
}
