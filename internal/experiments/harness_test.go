package experiments

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestRunTrialsErrorsNameScenarioTrialAndArm: an error from an arm and one
// from setup both come back from the driver wrapped with the scenario, the
// trial and the arm, and the healthy jobs' values land at [arm][trial].
func TestRunTrialsErrorsNameScenarioTrialAndArm(t *testing.T) {
	opt := goldenOptions()
	opt.Trials = 2
	boom := errors.New("boom")
	trialArm := arm[int]{"trial", func(e *env) (int, error) { return 10 + e.trial, nil }}
	failing := arm[int]{"failing", func(e *env) (int, error) {
		if e.trial == 1 {
			return 0, boom
		}
		return 0, nil
	}}
	failingSetup := func(e *env) error {
		if e.trial == 1 {
			return boom
		}
		return nil
	}

	out, _, err := runTrials(opt, "driver", nil, []arm[int]{trialArm})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0]) != 2 || out[0][0] != 10 || out[0][1] != 11 {
		t.Fatalf("runTrials returned %v, want [[10 11]]", out)
	}

	for _, tc := range []struct {
		name  string
		setup func(*env) error
		arms  []arm[int]
		want  string
	}{
		{"arm", nil, []arm[int]{trialArm, failing}, "experiments: driver trial 1 arm failing: boom"},
		{"setup", failingSetup, []arm[int]{trialArm}, "experiments: driver trial 1 arm trial: boom"},
	} {
		_, _, err := runTrials(opt, "driver", tc.setup, tc.arms)
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("failing %s: got error %v, want one wrapping boom as %q", tc.name, err, tc.want)
		}
	}
}

// TestForksRecordedTraceReplays: the trace a forks run records in trial 0
// replays to the same fork economics and λ series.
func TestForksRecordedTraceReplays(t *testing.T) {
	opt := goldenOptions()
	opt.RecordTrace = filepath.Join(t.TempDir(), "trace.json")
	recorded, err := Forks(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.TraceFile, opt.RecordTrace = opt.RecordTrace, ""
	replayed, err := Forks(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recorded.Workloads, replayed.Workloads) || !reflect.DeepEqual(recorded.Series, replayed.Series) {
		t.Fatalf("replay diverges from the recorded run:\n%+v\nvs\n%+v", replayed.Workloads, recorded.Workloads)
	}
}
