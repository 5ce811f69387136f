package perigee_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	perigee "github.com/perigee-net/perigee"
)

// TestNetworkTracing drives a traced network through a few rounds and
// checks the public trace surface: records accumulate, the summary reports
// counterfactual regret, and WriteTrace emits parseable NDJSON.
func TestNetworkTracing(t *testing.T) {
	net, err := perigee.New(60,
		perigee.WithSeed(3),
		perigee.WithRoundBlocks(20),
		perigee.WithTraceLevel(perigee.TraceDecisions),
		perigee.WithCounterfactualK(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(3); err != nil {
		t.Fatal(err)
	}

	recs := net.Trace()
	if len(recs) == 0 {
		t.Fatal("traced run recorded nothing")
	}
	decisions, counterfactuals := 0, 0
	for _, r := range recs {
		switch r.Kind {
		case "decision":
			decisions++
		case "counterfactual":
			counterfactuals++
		default:
			t.Fatalf("unknown record kind %q", r.Kind)
		}
	}
	if decisions == 0 || counterfactuals == 0 {
		t.Fatalf("got %d decisions, %d counterfactuals; want both > 0", decisions, counterfactuals)
	}

	sum := net.TraceSummary()
	if sum == nil {
		t.Fatal("traced network returned nil summary")
	}
	if sum.Selector != "Perigee-Subset" {
		t.Errorf("summary selector %q, want Perigee-Subset", sum.Selector)
	}
	if total := sum.Total(); total.Decisions != decisions || total.Alternatives != counterfactuals {
		t.Errorf("summary totals %+v disagree with records (%d decisions, %d cf)", total, decisions, counterfactuals)
	}
	if !strings.Contains(sum.Render(), "decision trace: Perigee-Subset") {
		t.Error("summary render is missing its header")
	}

	var buf bytes.Buffer
	if err := net.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var rec perigee.TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != len(recs) {
		t.Fatalf("WriteTrace emitted %d lines for %d records", lines, len(recs))
	}
}

// TestTracingOptionValidation: the facade refuses nonsense trace options
// and an untraced network's trace surface is inert.
func TestTracingOptionValidation(t *testing.T) {
	if _, err := perigee.New(60, perigee.WithTraceLevel(perigee.TraceLevel(9))); err == nil {
		t.Error("bad trace level accepted")
	}
	if _, err := perigee.New(60, perigee.WithCounterfactualK(-1)); err == nil {
		t.Error("negative counterfactual k accepted")
	}
	if _, err := perigee.New(60, perigee.WithCounterfactualK(2)); err == nil {
		t.Error("WithCounterfactualK without WithTraceLevel accepted")
	}

	net, err := perigee.New(60, perigee.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(1); err != nil {
		t.Fatal(err)
	}
	if net.Trace() != nil || net.TraceSummary() != nil {
		t.Error("untraced network returned trace data")
	}
	var buf bytes.Buffer
	if err := net.WriteTrace(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("untraced WriteTrace wrote %d bytes, err %v", buf.Len(), err)
	}
}

// TestTraceFollowsInstalledSelector: a built-in selector's parameters and
// name drive the trace as well as the engine. Its label names the policy,
// its scores are taken at its own percentile, and UCB's rounds span one
// block unless WithRoundBlocks says otherwise.
func TestTraceFollowsInstalledSelector(t *testing.T) {
	keepAll := perigee.SelectorFunc(func(view perigee.NeighborView) (perigee.Decision, error) {
		keep := make([]int, len(view.Observations.Neighbors))
		for i := range keep {
			keep[i] = i
		}
		return perigee.Decision{Keep: keep}, nil
	})
	traced := func(t *testing.T, sel perigee.Selector, opts ...perigee.Option) *perigee.Network {
		t.Helper()
		opts = append([]perigee.Option{
			perigee.WithSeed(3),
			perigee.WithSelector(sel),
			perigee.WithTraceLevel(perigee.TraceInputs),
		}, opts...)
		net, err := perigee.New(60, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}

	t.Run("labels", func(t *testing.T) {
		for _, tc := range []struct {
			sel  perigee.Selector
			want string
		}{
			{perigee.SubsetSelector(2, 0.9), "Perigee-Subset"},
			{perigee.VanillaSelector(2, 0.5), "Perigee-Vanilla"},
			{perigee.UCBSelector(0.9, 50*time.Millisecond), "Perigee-UCB"},
			{perigee.RandomSelector(2), "random"},
			{keepAll, "custom"},
		} {
			net := traced(t, tc.sel, perigee.WithRoundBlocks(10))
			if err := net.Run(1); err != nil {
				t.Fatal(err)
			}
			if got := net.TraceSummary().Selector; got != tc.want {
				t.Errorf("summary selector %q, want %q", got, tc.want)
			}
			for _, r := range net.Trace() {
				if r.Selector != tc.want {
					t.Fatalf("record selector %q, want %q", r.Selector, tc.want)
				}
			}
		}
	})

	t.Run("percentile", func(t *testing.T) {
		const pct = 0.5
		net := traced(t, perigee.VanillaSelector(2, pct), perigee.WithRoundBlocks(10))
		if err := net.Run(3); err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, r := range net.Trace() {
			if r.Kind != "decision" {
				continue
			}
			for i, got := range r.ScoresMs {
				col := make([]float64, len(r.OffsetsMs))
				for b, row := range r.OffsetsMs {
					col[b] = float64(row[i])
				}
				want := percentile(col, pct)
				if math.IsInf(want, 1) != math.IsInf(float64(got), 1) ||
					!math.IsInf(want, 1) && math.Abs(float64(got)-want) > 1e-3 {
					t.Fatalf("round %d node %d neighbor %d: score %v ms, want the %v-percentile %v ms",
						r.Round, r.Node, r.Neighbors[i], float64(got), pct, want)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("traced run recorded no scores")
		}
	})

	t.Run("ucb-round-blocks", func(t *testing.T) {
		net := traced(t, perigee.UCBSelector(0.9, 50*time.Millisecond))
		sum, err := net.Step()
		if err != nil {
			t.Fatal(err)
		}
		if sum.Blocks != 1 {
			t.Fatalf("UCB round broadcast %d blocks, want 1", sum.Blocks)
		}
	})
}

// percentile is the p-quantile of xs, interpolating linearly between the
// two nearest order statistics; +Inf (a censored offset) sorts last and a
// censored upper neighbor censors the result.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p * float64(len(s)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}
