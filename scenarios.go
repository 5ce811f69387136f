package perigee

import (
	"github.com/perigee-net/perigee/internal/experiments"
)

// ScenarioOptions configure a scenario run: network size, trials, rounds,
// seed, worker budget.
type ScenarioOptions = experiments.Options

// ScenarioResult is a completed scenario: per-algorithm series, notes, and
// (for figure5) histograms. See Render for a text report; it also
// marshals to JSON.
type ScenarioResult = experiments.Result

// ValidationModel selects the per-node validation delay distribution used
// by scenario options; re-exported from the experiment harness.
type ValidationModel = experiments.ValidationModel

// Re-exported validation models for ScenarioOptions.Validation.
const (
	// ValidationFixed gives every node exactly MeanValidation (paper §5).
	ValidationFixed = experiments.ValidationFixed
	// ValidationExponential draws per-node delays from
	// Exponential(MeanValidation).
	ValidationExponential = experiments.ValidationExponential
)

// ScenarioInfo names one registered scenario.
type ScenarioInfo struct {
	// ID identifies the scenario ("figure3a", "churn", ...).
	ID string
	// Brief is a one-line description.
	Brief string
}

// DefaultScenarioOptions mirrors the paper's evaluation scale (1000
// nodes, 3 trials).
func DefaultScenarioOptions() ScenarioOptions { return experiments.DefaultOptions() }

// QuickScenarioOptions is a scaled-down configuration (300 nodes, 1
// trial) where the paper's qualitative results still hold.
func QuickScenarioOptions() ScenarioOptions { return experiments.ShortOptions() }

// Scenarios lists every registered scenario — the paper's figures and
// theorems, the §6 extension studies, the ablation sweeps, and anything
// added through RegisterScenario — sorted by ID.
func Scenarios() []ScenarioInfo {
	scs := experiments.Scenarios()
	out := make([]ScenarioInfo, len(scs))
	for i, s := range scs {
		out[i] = ScenarioInfo{ID: s.ID, Brief: s.Brief}
	}
	return out
}

// RunScenario executes a registered scenario by ID at the given scale.
func RunScenario(id string, opt ScenarioOptions) (*ScenarioResult, error) {
	return experiments.Run(id, opt)
}

// RegisterScenario adds a scenario to the shared registry, making it
// runnable through RunScenario and visible to cmd/perigee-sim. It fails on
// an empty ID, a nil runner, or an ID collision.
func RegisterScenario(id, brief string, run func(ScenarioOptions) (*ScenarioResult, error)) error {
	return experiments.Register(experiments.Scenario{ID: id, Brief: brief, Run: run})
}
