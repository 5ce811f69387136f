package experiments

import (
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/paper"
)

// AblationVariant is one configuration point of an ablation sweep.
type AblationVariant struct {
	// Label names the variant in the result table.
	Label string
	// Method is the scoring method to run (default Subset).
	Method core.Method
	// Params transforms the method's default parameters.
	Params func(core.Params) core.Params
	// Setup optionally mutates the trial environment.
	Setup func(*env) error
}

// Ablation is a named sweep over protocol variants, always compared
// against the static random baseline on the same trial networks.
type Ablation struct {
	// ID is the experiment identifier ("ablation-exploration", ...).
	ID string
	// Title describes what is being varied.
	Title string
	// Variants are the sweep points.
	Variants []AblationVariant
}

// RunAblation executes the sweep: every variant (plus the random baseline)
// runs on the same per-trial environments.
func RunAblation(opt Options, ab Ablation) (*Result, error) {
	algos := []algo{randomAlgo}
	for _, v := range ab.Variants {
		algos = append(algos, algo{v.Label, func(e *env) ([]float64, error) {
			if v.Setup != nil {
				if err := v.Setup(e); err != nil {
					return nil, err
				}
			}
			tbl, err := paper.Random(e.opt.Nodes, e.root.Derive("ablation-topology-"+v.Label))
			if err != nil {
				return nil, err
			}
			var mods []func(*core.Config)
			if v.Params != nil {
				mods = append(mods, func(cfg *core.Config) { cfg.Params = v.Params(cfg.Params) })
			}
			s, _, err := e.runArm(v.Label, "ablation-engine-"+v.Label, v.Method, tbl, mods...)
			return s, err
		}})
	}
	res, err := runFigure(opt, ab.ID, ab.Title, nil, algos)
	if err != nil {
		return nil, err
	}
	baseline, err := res.SeriesByLabel(LabelRandom)
	if err != nil {
		return nil, err
	}
	for _, s := range res.Series {
		if s.Label == LabelRandom {
			continue
		}
		if m := baseline.Median(); m > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: median %.0f ms (%.0f%% vs random)",
				s.Label, s.Median(), improvementPct(s.Median(), m)))
		}
	}
	return res, nil
}

// AblationExploration sweeps the exploration budget e_v (paper fixes 2 of
// 8 connections). Zero exploration risks local optima; too much churns
// good neighbors away.
func AblationExploration() Ablation {
	ab := Ablation{
		ID:    "ablation-exploration",
		Title: "Ablation: exploration budget e_v (Subset scoring, out-degree 8)",
	}
	for _, ev := range []int{0, 1, 2, 4} {
		ab.Variants = append(ab.Variants, AblationVariant{
			Label:  fmt.Sprintf("explore=%d", ev),
			Method: core.Subset,
			Params: func(p core.Params) core.Params {
				p.Explore = ev
				return p
			},
		})
	}
	return ab
}

// AblationPercentile sweeps the scoring quantile (paper fixes the 90th
// percentile, tuned to its 90%-of-hash-power objective).
func AblationPercentile() Ablation {
	ab := Ablation{
		ID:    "ablation-percentile",
		Title: "Ablation: scoring percentile (Subset scoring)",
	}
	for _, pct := range []float64{0.5, 0.75, 0.9, 1.0} {
		ab.Variants = append(ab.Variants, AblationVariant{
			Label:  fmt.Sprintf("pct=%.2f", pct),
			Method: core.Subset,
			Params: func(p core.Params) core.Params {
				p.Percentile = pct
				return p
			},
		})
	}
	return ab
}

// AblationRoundLength sweeps |B| at a fixed total block budget: shorter
// rounds adapt faster but score on noisier estimates (§4.2.2's
// motivation for UCB).
func AblationRoundLength() Ablation {
	ab := Ablation{
		ID:    "ablation-roundlength",
		Title: "Ablation: round length |B| at fixed total blocks (Subset scoring)",
	}
	for _, blocks := range []int{25, 50, 100} {
		ab.Variants = append(ab.Variants, AblationVariant{
			Label:  fmt.Sprintf("B=%d", blocks),
			Method: core.Subset,
			Params: func(p core.Params) core.Params {
				p.RoundBlocks = blocks
				return p
			},
		})
	}
	return ab
}

// AblationUCBConstant sweeps the confidence constant c of eq. (3)–(4),
// which the paper leaves unspecified.
func AblationUCBConstant() Ablation {
	ab := Ablation{
		ID:    "ablation-ucb-constant",
		Title: "Ablation: UCB confidence constant c",
	}
	for _, c := range []time.Duration{0, 10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond} {
		ab.Variants = append(ab.Variants, AblationVariant{
			Label:  fmt.Sprintf("c=%s", c),
			Method: core.UCB,
			Params: func(p core.Params) core.Params {
				p.UCBConstant = c
				return p
			},
		})
	}
	return ab
}

// AblationValidationModel compares homogeneous (paper default) vs
// heterogeneous per-node validation delays. With heterogeneous delays
// Perigee additionally learns to route around slow validators, so its
// advantage over random grows — the repository's reproduction notes
// discuss this divergence from Figure 4(a).
func AblationValidationModel() Ablation {
	return Ablation{
		ID:    "ablation-validation-model",
		Title: "Ablation: homogeneous vs heterogeneous validation delays (Subset)",
		Variants: []AblationVariant{
			{
				Label:  "fixed-50ms",
				Method: core.Subset,
			},
			{
				Label:  "exp-mean-50ms",
				Method: core.Subset,
				Setup: func(e *env) error {
					e.forward = sampleForward(e.opt.Nodes, e.opt.MeanValidation,
						ValidationExponential, e.root.Derive("ablation-forward"))
					return nil
				},
			},
		},
	}
}

// Ablations lists all built-in ablation sweeps.
func Ablations() []Ablation {
	return []Ablation{
		AblationExploration(),
		AblationPercentile(),
		AblationRoundLength(),
		AblationUCBConstant(),
		AblationValidationModel(),
	}
}
