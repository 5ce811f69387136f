package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/perigee-net/perigee/internal/stats"
)

// TestLandmarkLambdaErrorBound quantifies the landmark estimator the scale
// scenario relies on: at a size where the exact all-sources pass is still
// affordable, the p50 and p90 of λ estimated from scaleDefaultLandmarks
// sources must sit within 15% of the exact full-population percentiles.
// (The landmark λ values are a uniform subsample of the population's, so
// their percentiles are the classic sample-quantile estimator; 64 sources
// keep its error well inside that bound at these scales.)
func TestLandmarkLambdaErrorBound(t *testing.T) {
	opt := ShortOptions()
	opt.Nodes = 300

	exactEnv, err := newEnv(opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	lmOpt := opt
	lmOpt.LambdaSources = scaleDefaultLandmarks
	lmEnv, err := newEnv(lmOpt, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Identical trial seeds ⇒ identical sampled networks and identical
	// random topologies for the same label.
	tbl, err := exactEnv.buildRandom("landmark-bound")
	if err != nil {
		t.Fatal(err)
	}
	lmTbl, err := lmEnv.buildRandom("landmark-bound")
	if err != nil {
		t.Fatal(err)
	}

	exact, err := exactEnv.evalTopology(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != opt.Nodes {
		t.Fatalf("exact pass evaluated %d sources, want %d", len(exact), opt.Nodes)
	}
	estimated, err := lmEnv.evalTopology(lmTbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(estimated) != scaleDefaultLandmarks {
		t.Fatalf("landmark pass evaluated %d sources, want %d", len(estimated), scaleDefaultLandmarks)
	}

	for _, p := range []float64{0.5, 0.9} {
		want := stats.Percentile(exact, p)
		got := stats.Percentile(estimated, p)
		relErr := math.Abs(got-want) / want
		t.Logf("p%.0f: exact %.1f ms, landmarks %.1f ms, error %.1f%%", 100*p, want, got, 100*relErr)
		if relErr > 0.15 {
			t.Errorf("p%.0f landmark estimate %.1f ms is %.1f%% off the exact %.1f ms (bound 15%%)",
				100*p, got, 100*relErr, want)
		}
	}
}

// TestLandmarksStableAcrossEvaluations checks the landmark set is cached
// and derived statelessly: repeated calls — and calls on a fresh env with
// the same trial seed — return the same sorted sources.
func TestLandmarksStableAcrossEvaluations(t *testing.T) {
	opt := ShortOptions()
	opt.LambdaSources = 16
	e, err := newEnv(opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]int(nil), e.landmarks()...)
	if len(first) != 16 {
		t.Fatalf("got %d landmarks, want 16", len(first))
	}
	for i := 1; i < len(first); i++ {
		if first[i-1] >= first[i] {
			t.Fatalf("landmarks not strictly ascending: %v", first)
		}
	}
	again := e.landmarks()
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("landmark set changed across calls: %v vs %v", first, again)
		}
	}
	e2, err := newEnv(opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	fresh := e2.landmarks()
	for i := range first {
		if first[i] != fresh[i] {
			t.Fatalf("landmark set not stateless: %v vs %v", first, fresh)
		}
	}
}

// TestScaleScenarioSmoke runs the scale scenario at test size with its
// options enabled — a narrow observation window and landmark evaluation —
// and checks the shape of the result: per-round p90/p50 series and the
// stack note, whose latency mode is the one resolved from the node count.
func TestScaleScenarioSmoke(t *testing.T) {
	opt := ShortOptions()
	opt.Nodes = 120
	opt.Rounds = 4
	opt.RoundBlocks = 30
	opt.LambdaSources = 24
	opt.ObservationWindow = 10

	res, err := Run("scale", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Mean) != opt.Rounds {
			t.Fatalf("series %s has %d points, want %d", s.Label, len(s.Mean), opt.Rounds)
		}
		for i, v := range s.Mean {
			if math.IsNaN(v) || v <= 0 {
				t.Fatalf("series %s point %d is %v", s.Label, i, v)
			}
		}
	}
	p90, err := res.SeriesByLabel("p90-lambda")
	if err != nil {
		t.Fatal(err)
	}
	p50, err := res.SeriesByLabel("p50-lambda")
	if err != nil {
		t.Fatal(err)
	}
	for i := range p90.Mean {
		if p50.Mean[i] > p90.Mean[i] {
			t.Fatalf("round %d: p50 %.1f exceeds p90 %.1f", i, p50.Mean[i], p90.Mean[i])
		}
	}
	var stackNote bool
	for _, note := range res.Notes {
		if strings.Contains(note, "latency=precomputed") &&
			strings.Contains(note, "landmarks=24") &&
			strings.Contains(note, "window=10") {
			stackNote = true
		}
	}
	if !stackNote {
		t.Fatalf("missing scale-stack note; notes: %v", res.Notes)
	}
}
