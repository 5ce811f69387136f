package perigee

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// benchRecord is the part of a committed BENCH_<rev>.json, the -o record of
// scripts/compare.sh, that its summary fields derive from.
type benchRecord struct {
	Workloads []struct {
		Name             string                 `json:"name"`
		Metrics          map[string]benchMetric `json:"metrics"`
		PropagationMoved *bool                  `json:"propagation_moved"`
	} `json:"workloads"`
}

// benchMetric is one workload's end-to-end metric: every pair's values
// (null for a failed run) and the summary compare.sh derived from them,
// absent when no pair was usable. Counts decode as float64 like the rest.
type benchMetric struct {
	Better       string     `json:"better"`
	Base         []*float64 `json:"base"`
	Change       []*float64 `json:"change"`
	UsablePairs  *float64   `json:"usable_pairs"`
	BaseMedian   *float64   `json:"base_median"`
	BaseQ1       *float64   `json:"base_q1"`
	BaseQ3       *float64   `json:"base_q3"`
	ChangeMedian *float64   `json:"change_median"`
	ChangeWins   *float64   `json:"change_wins"`
}

// TestBenchRecordsRecompute recomputes every committed BENCH_*.json's
// summary from its stored pairs, as scripts/compare.sh computes it: per
// workload and metric the usable pairs (both sides non-null), both medians,
// the base's inclusive quartiles and the change's wins, and per simulated
// workload whether propagation_ms_p50 moved. Any difference fails.
func TestBenchRecordsRecompute(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json in the repository root")
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var rec benchRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, w := range rec.Workloads {
			for name, m := range w.Metrics {
				for _, bad := range checkBenchMetric(m) {
					t.Errorf("%s: %s %s: %s", file, w.Name, name, bad)
				}
			}
			if w.PropagationMoved != nil {
				m := w.Metrics["propagation_ms_p50"]
				moved := false
				for i := range m.Base {
					if m.Base[i] != nil && m.Change[i] != nil && *m.Base[i] != *m.Change[i] {
						moved = true
					}
				}
				if moved != *w.PropagationMoved {
					t.Errorf("%s: %s: propagation_moved %v, the pairs say %v", file, w.Name, *w.PropagationMoved, moved)
				}
			}
		}
	}
}

// checkBenchMetric returns how m's recorded summary differs from the one
// its pairs give.
func checkBenchMetric(m benchMetric) (bad []string) {
	if len(m.Base) != len(m.Change) {
		return []string{"base and change have different pair counts"}
	}
	var base, change []float64
	wins := 0
	for i := range m.Base {
		if m.Base[i] == nil || m.Change[i] == nil {
			continue
		}
		b, c := *m.Base[i], *m.Change[i]
		base, change = append(base, b), append(change, c)
		if m.Better == "lower" && c < b || m.Better == "higher" && c > b {
			wins++
		}
	}
	if m.Better != "lower" && m.Better != "higher" {
		bad = append(bad, "better is "+m.Better)
	}
	recorded := []struct {
		name string
		got  *float64
	}{
		{"usable_pairs", m.UsablePairs}, {"base_median", m.BaseMedian}, {"base_q1", m.BaseQ1},
		{"base_q3", m.BaseQ3}, {"change_median", m.ChangeMedian}, {"change_wins", m.ChangeWins},
	}
	if len(base) == 0 {
		for _, r := range recorded {
			if r.got != nil {
				bad = append(bad, r.name+" recorded with no usable pair")
			}
		}
		return bad
	}
	q1, q3 := benchQuartiles(base)
	want := []float64{float64(len(base)), pyMedian(base), q1, q3, pyMedian(change), float64(wins)}
	for i, r := range recorded {
		if r.got == nil || *r.got != want[i] {
			bad = append(bad, fmt.Sprintf("%s recorded as %v, recomputed as %v", r.name, deref(r.got), want[i]))
		}
	}
	return bad
}

// deref returns *p, or "absent" for a nil p.
func deref(p *float64) any {
	if p == nil {
		return "absent"
	}
	return *p
}

// pyMedian is Python's statistics.median.
func pyMedian(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// benchQuartiles is compare.sh's q1 and q3: Python's
// statistics.quantiles(xs, n=4, method="inclusive"), or the median twice
// for a single pair. The explicit conversions keep each product rounded on
// its own, as Python rounds it, where a compiler could fuse a
// multiply-add.
func benchQuartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(i int) float64 {
		j, delta := i*(len(s)-1)/4, i*(len(s)-1)%4
		return (float64(s[j]*float64(4-delta)) + float64(s[j+1]*float64(delta))) / 4
	}
	return q(1), q(3)
}
