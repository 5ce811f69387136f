package experiments

import (
	"fmt"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/stats"
)

// scaleDefaultLandmarks is the landmark count the scale scenario falls back
// to when the caller leaves LambdaSources unset: enough sources for stable
// p90/p50 estimates (the error-bound test quantifies this) while keeping
// per-round evaluation at k floods instead of n.
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
	if opt.LambdaSources == 0 {
		opt.LambdaSources = scaleDefaultLandmarks
	}
	ref, series, regret, err := trajectories(opt, "scale", [2]string{"p90-lambda", "p50-lambda"},
		func(e *env, engine *core.Engine) ([2]float64, error) {
			sorted, err := e.lambda(engine, e.opt.Fraction)
			if err != nil {
				return [2]float64{}, err
			}
			return [2]float64{stats.Percentile(sorted, 0.9), stats.Percentile(sorted, 0.5)}, nil
		})
	if err != nil {
		return nil, err
	}
	s90, random90 := series[0], ref[0].Mean()
	res := &Result{
		ID:      "scale",
		Title:   fmt.Sprintf("Scale: per-round λ trajectory at n=%d (Perigee-Subset vs static random)", opt.Nodes),
		Series:  series,
		Regret:  regret,
		Options: opt,
		Notes: []string{
			fmt.Sprintf("scale stack: latency=%s landmarks=%d window=%d",
				latency.Auto.Resolve(opt.Nodes), opt.LambdaSources, opt.ObservationWindow),
			fmt.Sprintf("static random reference p90: %.0f ms", random90),
			fmt.Sprintf("p90 trajectory: %.0f -> %.0f ms over %d rounds (monotone violations: %d)",
				s90.Mean[0], s90.Mean[len(s90.Mean)-1], opt.Rounds, monotoneViolations(s90.Mean)),
		},
	}
	if last := s90.Mean[len(s90.Mean)-1]; last < random90 {
		res.Notes = append(res.Notes,
			fmt.Sprintf("converged p90 beats the static random baseline by %.0f%%", improvementPct(last, random90)))
	}
	return res, nil
}
