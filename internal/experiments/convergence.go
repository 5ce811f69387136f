package experiments

import (
	"fmt"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/parallel"
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
	if err := opt.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		ID:      "convergence",
		Title:   "Convergence: per-round median delay to 90% and 50% of hash power (Perigee-Subset)",
		Options: opt,
	}
	p90Trials := make([][]float64, opt.Trials)
	p50Trials := make([][]float64, opt.Trials)
	random90Trials := make([]float64, opt.Trials)
	random50Trials := make([]float64, opt.Trials)
	perTrace := make([][]*trace.Summary, opt.Trials)
	outer, innerOpt := splitWorkers(opt, opt.Trials)
	err := parallel.ForEachIndexed(opt.Trials, outer, func(_, t int) error {
		e, err := newEnv(innerOpt, t)
		if err != nil {
			return err
		}
		randTbl, err := e.buildRandom(LabelRandom)
		if err != nil {
			return err
		}
		ref, err := e.static(randTbl)
		if err != nil {
			return err
		}
		r90, err := e.lambda(ref, 0.9)
		if err != nil {
			return err
		}
		random90Trials[t] = stats.Percentile(r90, 0.5)
		r50, err := e.lambda(ref, 0.5)
		if err != nil {
			return err
		}
		random50Trials[t] = stats.Percentile(r50, 0.5)

		tbl, err := e.buildRandom("convergence")
		if err != nil {
			return err
		}
		engine, rounds, err := e.engine(LabelSubset, extensionStream, core.Subset, tbl)
		if err != nil {
			return err
		}
		p90 := make([]float64, 0, rounds)
		p50 := make([]float64, 0, rounds)
		for r := 0; r < rounds; r++ {
			if _, err := engine.Step(); err != nil {
				return err
			}
			d90, err := e.lambda(engine, 0.9)
			if err != nil {
				return err
			}
			d50, err := e.lambda(engine, 0.5)
			if err != nil {
				return err
			}
			p90 = append(p90, stats.Percentile(d90, 0.5))
			p50 = append(p50, stats.Percentile(d50, 0.5))
		}
		perTrace[t] = e.regret()
		p90Trials[t] = p90
		p50Trials[t] = p50
		return nil
	})
	if err != nil {
		return nil, err
	}
	var random90, random50 stats.Summary
	for t := 0; t < opt.Trials; t++ {
		random90.Add(random90Trials[t])
		random50.Add(random50Trials[t])
	}
	s90, err := aggregate("p90-coverage", p90Trials)
	if err != nil {
		return nil, err
	}
	s50, err := aggregate("p50-coverage", p50Trials)
	if err != nil {
		return nil, err
	}
	res.Series = []Series{s90, s50}
	res.Regret = mergeRegret(perTrace...)
	res.Notes = append(res.Notes,
		fmt.Sprintf("random reference medians: %.0f ms (90%% coverage), %.0f ms (50%% coverage)",
			random90.Mean(), random50.Mean()),
		fmt.Sprintf("90%% trajectory: %.0f -> %.0f ms over %d rounds (monotone violations: %d)",
			s90.Mean[0], s90.Mean[len(s90.Mean)-1], opt.Rounds, monotoneViolations(s90.Mean)),
		fmt.Sprintf("50%% trajectory: %.0f -> %.0f ms (monotone violations: %d) — Perigee only optimizes the 90th percentile (§5.2)",
			s50.Mean[0], s50.Mean[len(s50.Mean)-1], monotoneViolations(s50.Mean)))
	return res, nil
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
