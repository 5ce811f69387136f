package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The program's metric lists and BENCHMARK.json say the same thing, within
// the contract's limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) > 16 || len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program, at most 16 allowed", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		unique(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program",
				i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Errorf("setup_s [s, lower is better] is missing")
	}

	if len(b.PerLayer) > 128 || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program, at most 128 allowed", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		unique(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

var metricLineRE = regexp.MustCompile(`^(\S+)\s+= (\S+) (\S+)$`)

// smokeRun runs one workload at smoke size in this process and checks the
// shape of what it printed: every metric of the run's list exactly once with
// its unit, nothing else, and a last line that says the same.
func smokeRun(t *testing.T, name string, seed uint64, traced bool) jsonResult {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	var out bytes.Buffer
	res, err := execute(runConfig{seed: seed, smoke: true}, 0, w, traced, &out)
	if err != nil {
		t.Fatalf("%s traced=%t: %v", name, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d\n%s", name, traced, res.Correct, res.Attempted, res.Failed, out.String())
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	printed := map[string]string{}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	for _, line := range lines {
		if m := metricLineRE.FindStringSubmatch(line); m != nil {
			if _, twice := printed[m[1]]; twice {
				t.Errorf("%s traced=%t: %s printed twice", name, traced, m[1])
			}
			printed[m[1]] = m[3]
		}
	}
	if len(printed) != len(defs) {
		t.Errorf("%s traced=%t: %d metrics printed, want %d", name, traced, len(printed), len(defs))
	}
	for _, d := range defs {
		if unit, ok := printed[d.name]; !ok || unit != d.unit {
			t.Errorf("%s traced=%t: %s printed with unit %q, want %q", name, traced, d.name, unit, d.unit)
		}
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s traced=%t: %s missing from the result line", name, traced, d.name)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s traced=%t: result line has %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
	}

	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s traced=%t: last line is not JSON: %v", name, traced, err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("%s traced=%t: last line has keys %v", name, traced, last)
	}
	return res
}

// Every workload, both runs, at smoke size; no timing is asserted. On the sim
// workloads the simulated metrics are a function of the seed alone: equal on
// a second run of the seed, different for another.
func TestSmokeEveryWorkload(t *testing.T) {
	simulated := map[bool][]string{
		false: {"propagation_ms_p50"},
		true:  {"lambda90_start_ms_p50", "lambda90_ms_p50", "lambda90_ms_p90", "lambda90_gain_pct", "stale_rate_pct"},
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := smokeRun(t, w.name, 1, traced)
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
			if w.name == "live-line-4" {
				continue
			}
			again := smokeRun(t, w.name, 1, traced)
			for _, m := range simulated[traced] {
				if res.Metrics[m].Value != again.Metrics[m].Value {
					t.Errorf("%s: %s = %v and %v on two runs of seed 1", w.name, m, res.Metrics[m].Value, again.Metrics[m].Value)
				}
			}
			if traced {
				continue // the traced run is the slower one; one mode shows that the seed matters
			}
			other := smokeRun(t, w.name, 2, traced)
			for _, m := range simulated[traced] {
				if res.Metrics[m].Value == other.Metrics[m].Value {
					t.Errorf("%s: %s = %v for seeds 1 and 2 alike", w.name, m, res.Metrics[m].Value)
				}
			}
		}
	}
}
