package experiments

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/core"
)

// contractRow exempts scenarios from the option checks of
// TestEveryScenarioHonoursOptions, with the reason. A row with no
// exemption states that its scenarios honour every option.
type contractRow struct {
	ids      []string
	noEngine bool // runs no engine: nothing to trace, no window to apply
	noWindow bool // a one-block observation window changes nothing
	noLambda bool // reports no λ series
	reason   string
}

// scenarioContract lists every built-in scenario exactly once. A built-in
// scenario missing here fails the test, so a new scenario has to state
// which options it honours.
var scenarioContract = []contractRow{
	{ids: []string{"figure1", "theorem1", "theorem2"}, noEngine: true, noLambda: true,
		reason: "no engine: stretch of static graphs"},
	{ids: []string{"eclipse", "figure5"}, noLambda: true,
		reason: "no λ series: capture notes and edge-latency histograms"},
	{ids: []string{"ablation-ucb-constant"}, noWindow: true,
		reason: "UCB rounds span one block, so a one-block window is no window"},
	{ids: []string{
		"figure3a", "figure3b", "figure4a", "figure4b", "figure4c",
		"freeride", "churn", "bandwidth", "convergence", "scale", "forks",
		"adversary-latency-liar", "adversary-withholding", "adversary-sybil-flood",
		"adversary-eclipse-bias", "adversary-partition",
		"ablation-exploration", "ablation-percentile", "ablation-roundlength",
		"ablation-validation-model",
	}, reason: "honours every option"},
}

// contractOptions is the tiny scale every scenario runs at in the contract
// test.
func contractOptions() Options {
	return Options{
		Nodes:          40,
		Trials:         2,
		Rounds:         2,
		RoundBlocks:    10,
		Fraction:       0.9,
		Seed:           7,
		MeanValidation: 50 * time.Millisecond,
	}
}

// TestEveryScenarioHonoursOptions runs every built-in scenario of the
// registry and checks that the run options reach every arm:
//   - Workers 1 and 8 give identical results, regret summaries included;
//   - tracing leaves the series and notes alone, and the arms that
//     streamed round events are exactly the arms with a regret summary —
//     at least one wherever an engine runs;
//   - a one-block ObservationWindow moves the result;
//   - LambdaSources moves the result, and every λ series of one result
//     covers the same number of sources.
func TestEveryScenarioHonoursOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario five times")
	}
	rows := map[string]contractRow{}
	for _, row := range scenarioContract {
		for _, id := range row.ids {
			if _, dup := rows[id]; dup {
				t.Errorf("scenario %s has two contract rows", id)
			}
			rows[id] = row
		}
	}
	builtin := builtinScenarios()
	for _, sc := range Scenarios() {
		if _, ok := builtin[sc.ID]; !ok {
			continue // registered by another test
		}
		row, ok := rows[sc.ID]
		if !ok {
			t.Errorf("built-in scenario %s has no row in scenarioContract", sc.ID)
			continue
		}
		t.Run(sc.ID, func(t *testing.T) { checkContract(t, sc, row) })
	}
}

func checkContract(t *testing.T, sc Scenario, row contractRow) {
	run := func(set func(*Options)) *Result {
		t.Helper()
		opt := contractOptions()
		set(&opt)
		res, err := sc.Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		res.Options = Options{} // the echo differs by construction
		return res
	}
	base := run(func(*Options) {})

	var mu sync.Mutex
	streamed := map[string]bool{}
	traced := func(workers int) func(*Options) {
		return func(o *Options) {
			o.Workers = workers
			o.TraceLevel = int(core.TraceDecisions)
			o.CounterfactualK = 1
			o.RoundObserver = func(arm string, _ int, _ core.RoundEvent) {
				mu.Lock()
				streamed[arm] = true
				mu.Unlock()
			}
		}
	}
	one, eight := run(traced(1)), run(traced(8))
	if !reflect.DeepEqual(one, eight) {
		t.Error("Workers 1 and Workers 8 give different results")
	}
	if !reflect.DeepEqual(base.Series, one.Series) || !reflect.DeepEqual(base.Notes, one.Notes) {
		t.Error("tracing changed the series or notes")
	}
	selectors := map[string]bool{}
	for _, s := range one.Regret {
		selectors[s.Selector] = true
	}
	if !reflect.DeepEqual(streamed, selectors) {
		t.Errorf("arms that streamed round events %v differ from regret selectors %v",
			sortedKeys(streamed), sortedKeys(selectors))
	}
	if len(selectors) == 0 && !row.noEngine {
		t.Error("no engine arm was traced")
	}

	if !row.noEngine && !row.noWindow {
		if reflect.DeepEqual(base, run(func(o *Options) { o.ObservationWindow = 1 })) {
			t.Error("a one-block observation window changed nothing")
		}
	}

	if !row.noLambda {
		landmarked := run(func(o *Options) { o.LambdaSources = 10 })
		if reflect.DeepEqual(base, landmarked) {
			t.Error("10 λ landmark sources changed nothing")
		}
		for _, s := range landmarked.Series {
			if len(s.Mean) != len(landmarked.Series[0].Mean) {
				t.Errorf("with landmarks, series %s has %d entries but %s has %d",
					s.Label, len(s.Mean), landmarked.Series[0].Label, len(landmarked.Series[0].Mean))
			}
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
