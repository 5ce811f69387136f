package experiments

import (
	"reflect"
	"testing"
)

// TestObservationWindowReachesEveryEngine runs one scenario from each
// engine builder outside the shared harness — the ablation sweep, the
// adversarial arms and the eclipse capture — with a one-block observation
// window and with none. A window the builder drops leaves the two runs
// identical.
func TestObservationWindowReachesEveryEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs")
	}
	for _, id := range []string{"ablation-exploration", "adversary-withholding", "eclipse"} {
		t.Run(id, func(t *testing.T) {
			opt := tinyOptions()
			opt.Nodes = 60
			opt.Rounds = 3
			opt.RoundBlocks = 20
			run := func(window int) *Result {
				o := opt
				o.ObservationWindow = window
				res, err := Run(id, o)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			full, windowed := run(0), run(1)
			if reflect.DeepEqual(full.Series, windowed.Series) && reflect.DeepEqual(full.Notes, windowed.Notes) {
				t.Fatal("a one-block observation window changed nothing")
			}
		})
	}
}
