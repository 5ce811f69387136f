package experiments

import (
	"fmt"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/parallel"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/trace"
)

// scaleDefaultLandmarks is the landmark count the scale scenario falls back
// to when the caller leaves LambdaSources unset: enough sources for stable
// p90/p50 estimates (the error-bound test quantifies this) while keeping
// per-round evaluation at k Dijkstras instead of n.
const scaleDefaultLandmarks = 64

// Scale is the large-n convergence scenario: Perigee-Subset against the
// static random baseline at sizes two orders of magnitude beyond the
// paper's n=1000, exercising the full scale stack — streaming latency
// (automatic from 1M nodes), windowed observations, and landmark
// λ-evaluation. It reports the per-round p90 and median of λ (delay to
// Fraction of hash power) across the landmark sources, plus the
// random-topology reference, so convergence (a decreasing honest p90
// trajectory) is visible directly in the series.
//
// Unlike the paper-scale figures, evaluation defaults to landmark sampling
// (scaleDefaultLandmarks sources) because an all-sources pass is quadratic
// in n; set LambdaSources explicitly to override, or run the exact pass at
// small n with LambdaSources = Nodes.
func Scale(opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.LambdaSources == 0 {
		opt.LambdaSources = scaleDefaultLandmarks
	}
	res := &Result{
		ID:      "scale",
		Title:   fmt.Sprintf("Scale: per-round λ trajectory at n=%d (Perigee-Subset vs static random)", opt.Nodes),
		Options: opt,
	}
	p90Trials := make([][]float64, opt.Trials)
	p50Trials := make([][]float64, opt.Trials)
	random90Trials := make([]float64, opt.Trials)
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
		r90, err := e.evalTopology(randTbl)
		if err != nil {
			return err
		}
		random90Trials[t] = stats.Percentile(r90, 0.9)

		tbl, err := e.buildRandom("scale")
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
			sorted, err := e.lambda(engine, e.opt.Fraction)
			if err != nil {
				return err
			}
			p90 = append(p90, stats.Percentile(sorted, 0.9))
			p50 = append(p50, stats.Percentile(sorted, 0.5))
		}
		perTrace[t] = e.regret()
		p90Trials[t] = p90
		p50Trials[t] = p50
		return nil
	})
	if err != nil {
		return nil, err
	}
	s90, err := aggregate("p90-lambda", p90Trials)
	if err != nil {
		return nil, err
	}
	s50, err := aggregate("p50-lambda", p50Trials)
	if err != nil {
		return nil, err
	}
	res.Series = []Series{s90, s50}
	res.Regret = mergeRegret(perTrace...)
	var random90 stats.Summary
	for t := 0; t < opt.Trials; t++ {
		random90.Add(random90Trials[t])
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("scale stack: latency=%s landmarks=%d window=%d",
			latency.Auto.Resolve(opt.Nodes), opt.LambdaSources, opt.ObservationWindow),
		fmt.Sprintf("static random reference p90: %.0f ms", random90.Mean()),
		fmt.Sprintf("p90 trajectory: %.0f -> %.0f ms over %d rounds (monotone violations: %d)",
			s90.Mean[0], s90.Mean[len(s90.Mean)-1], opt.Rounds, monotoneViolations(s90.Mean)))
	if last := s90.Mean[len(s90.Mean)-1]; last < random90.Mean() {
		res.Notes = append(res.Notes,
			fmt.Sprintf("converged p90 beats the static random baseline by %.0f%%",
				100*(1-last/random90.Mean())))
	}
	return res, nil
}
