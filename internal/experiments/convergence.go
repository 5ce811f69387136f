package experiments

import (
	"fmt"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/trace"
)

// Convergence reproduces §5.2's convergence observation: as rounds pass,
// the delay to reach 90% of hash power converges (it is what Perigee's
// 90th-percentile scoring optimizes), while the delay to reach 50% does
// not decrease monotonically. The result carries two series indexed by
// round — medians across nodes of λ_v at 90% and at 50% coverage — plus
// the random-topology reference medians in the notes.
func Convergence(opt Options) (*Result, error) {
	ref, series, regret, err := trajectories(opt, "convergence", [2]string{"p90-coverage", "p50-coverage"},
		func(e *env, engine *core.Engine) (m [2]float64, err error) {
			for i, frac := range []float64{0.9, 0.5} {
				d, err := e.lambda(engine, frac)
				if err != nil {
					return m, err
				}
				m[i] = stats.Percentile(d, 0.5)
			}
			return m, nil
		})
	if err != nil {
		return nil, err
	}
	s90, s50 := series[0], series[1]
	return &Result{
		ID:      "convergence",
		Title:   "Convergence: per-round median delay to 90% and 50% of hash power (Perigee-Subset)",
		Series:  series,
		Regret:  regret,
		Options: opt,
		Notes: []string{
			fmt.Sprintf("random reference medians: %.0f ms (90%% coverage), %.0f ms (50%% coverage)",
				ref[0].Mean(), ref[1].Mean()),
			fmt.Sprintf("90%% trajectory: %.0f -> %.0f ms over %d rounds (monotone violations: %d)",
				s90.Mean[0], s90.Mean[len(s90.Mean)-1], opt.Rounds, monotoneViolations(s90.Mean)),
			fmt.Sprintf("50%% trajectory: %.0f -> %.0f ms (monotone violations: %d) — Perigee only optimizes the 90th percentile (§5.2)",
				s50.Mean[0], s50.Mean[len(s50.Mean)-1], monotoneViolations(s50.Mean)),
		},
	}, nil
}

// trajectories runs the per-trial job of Convergence and Scale on one env:
// the static random reference, measured once, then a Perigee-Subset engine
// seeded on the random topology named id, measured after every round.
// Both run in one job, as one arm, so the engine gets the trial's whole
// worker share. measure reads two numbers off an engine. It returns the
// reference's two numbers summarized across trials and the engine's two
// per-round series, labelled from labels.
func trajectories(opt Options, id string, labels [2]string, measure func(*env, *core.Engine) ([2]float64, error)) (ref [2]stats.Summary, series []Series, regret []*trace.Summary, err error) {
	type trajectory struct {
		ref    [2]float64
		rounds [][2]float64
	}
	perTrial, regret, err := runTrials(opt, id, nil, []arm[trajectory]{{LabelSubset, func(e *env) (tr trajectory, err error) {
		tbl, err := e.buildRandom(LabelRandom)
		if err != nil {
			return tr, err
		}
		static, err := e.static(tbl)
		if err != nil {
			return tr, err
		}
		if tr.ref, err = measure(e, static); err != nil {
			return tr, err
		}
		if tbl, err = e.buildRandom(id); err != nil {
			return tr, err
		}
		engine, rounds, err := e.engine(LabelSubset, extensionStream, core.Subset, tbl)
		if err != nil {
			return tr, err
		}
		tr.rounds = make([][2]float64, rounds)
		for r := range tr.rounds {
			if _, err := engine.Step(); err != nil {
				return tr, err
			}
			if tr.rounds[r], err = measure(e, engine); err != nil {
				return tr, err
			}
		}
		return tr, nil
	}}})
	if err != nil {
		return ref, nil, nil, err
	}
	for i, label := range labels {
		rounds := make([][]float64, opt.Trials)
		for t, tr := range perTrial[0] {
			ref[i].Add(tr.ref[i])
			for _, m := range tr.rounds {
				rounds[t] = append(rounds[t], m[i])
			}
		}
		s, err := aggregate(label, rounds)
		if err != nil {
			return ref, nil, nil, err
		}
		series = append(series, s)
	}
	return ref, series, regret, nil
}

// monotoneViolations counts indices where the series increases (a strictly
// converging trajectory has none beyond noise).
func monotoneViolations(xs []float64) int {
	count := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[i-1] {
			count++
		}
	}
	return count
}
