package experiments

import (
	"math"
	"strings"
	"testing"
)

// tinyOptions keeps unit runs fast; ordering assertions use ShortOptions.
func tinyOptions() Options {
	return Options{
		Nodes:          80,
		Trials:         1,
		Rounds:         6,
		RoundBlocks:    30,
		Fraction:       0.9,
		Seed:           7,
		MeanValidation: 50e6, // 50ms in ns
	}
}

func curveMean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func TestOptionsValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(Options) Options
	}{
		{"too few nodes", func(o Options) Options { o.Nodes = 5; return o }},
		{"zero trials", func(o Options) Options { o.Trials = 0; return o }},
		{"zero rounds", func(o Options) Options { o.Rounds = 0; return o }},
		{"zero round blocks", func(o Options) Options { o.RoundBlocks = 0; return o }},
		{"bad fraction", func(o Options) Options { o.Fraction = 1.5; return o }},
		{"negative validation", func(o Options) Options { o.MeanValidation = -1; return o }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.mutate(tinyOptions())
			if _, err := Figure3a(opt); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestIDsAndDescribe(t *testing.T) {
	ids := IDs()
	// 9 paper figures/theorems + 7 extensions + the adversary strategies
	// + the ablation sweeps.
	if want := 16 + len(adversaryScenarios()) + len(Ablations()); len(ids) != want {
		t.Fatalf("got %d experiment IDs, want %d: %v", len(ids), want, ids)
	}
	for _, id := range ids {
		brief, err := Describe(id)
		if err != nil || brief == "" {
			t.Fatalf("Describe(%q) = %q, %v", id, brief, err)
		}
	}
	if _, err := Describe("nope"); err == nil {
		t.Fatal("expected error for unknown ID")
	}
	if _, err := Run("nope", tinyOptions()); err == nil {
		t.Fatal("expected error for unknown ID")
	}
}

func TestFigure1GeometricBeatsRandom(t *testing.T) {
	opt := tinyOptions()
	opt.Nodes = 300
	res, err := Figure1(opt)
	if err != nil {
		t.Fatal(err)
	}
	randomS, err := res.SeriesByLabel("random-stretch")
	if err != nil {
		t.Fatal(err)
	}
	geomS, err := res.SeriesByLabel("geometric-stretch")
	if err != nil {
		t.Fatal(err)
	}
	if geomS.Median() >= randomS.Median() {
		t.Fatalf("geometric stretch %.2f should beat random %.2f", geomS.Median(), randomS.Median())
	}
	if geomS.Median() < 1 {
		t.Fatalf("stretch below 1 impossible: %.3f", geomS.Median())
	}
	if len(res.Notes) == 0 {
		t.Fatal("expected a summary note")
	}
}

func TestFigure3aOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-algorithm convergence run")
	}
	opt := ShortOptions()
	res, err := Figure3a(opt)
	if err != nil {
		t.Fatal(err)
	}
	med := map[string]float64{}
	for _, s := range res.Series {
		med[s.Label] = s.Median()
		if math.IsInf(s.Median(), 1) || s.Median() <= 0 {
			t.Fatalf("%s has degenerate median %v", s.Label, s.Median())
		}
	}
	// The paper's qualitative orderings.
	if !(med[LabelIdeal] < med[LabelSubset]) {
		t.Errorf("ideal (%.0f) should lower-bound Perigee-Subset (%.0f)", med[LabelIdeal], med[LabelSubset])
	}
	if !(med[LabelSubset] < med[LabelRandom]) {
		t.Errorf("Perigee-Subset (%.0f) should beat random (%.0f)", med[LabelSubset], med[LabelRandom])
	}
	// Geographic's advantage over random is modest; compare whole-curve
	// means rather than the (noisier) single median rank.
	geoS, _ := res.SeriesByLabel(LabelGeographic)
	randS, _ := res.SeriesByLabel(LabelRandom)
	if geoMean, randMean := curveMean(geoS.Mean), curveMean(randS.Mean); geoMean >= randMean {
		t.Errorf("geographic curve mean (%.0f) should beat random (%.0f)", geoMean, randMean)
	}
	if !(med[LabelVanilla] < med[LabelRandom]) {
		t.Errorf("Perigee-Vanilla (%.0f) should beat random (%.0f)", med[LabelVanilla], med[LabelRandom])
	}
	// Kademlia behaves like an unstructured baseline: within a factor of
	// the random topology, not competitive with Perigee-Subset.
	if !(med[LabelKademlia] < 1.5*med[LabelRandom] && med[LabelKademlia] > med[LabelSubset]) {
		t.Errorf("kademlia median %.0f outside expected band (subset %.0f, random %.0f)",
			med[LabelKademlia], med[LabelSubset], med[LabelRandom])
	}
	t.Logf("medians: %v", med)
	t.Logf("\n%s", res.Render())
}

func TestFigure4aAdvantageShrinksWithValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run")
	}
	opt := ShortOptions()
	opt.Rounds = 8
	res, err := Figure4a(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Improvement at 0.1x validation should exceed improvement at 10x.
	improvement := func(mult string) float64 {
		r, err := res.SeriesByLabel("random-" + mult)
		if err != nil {
			t.Fatal(err)
		}
		s, err := res.SeriesByLabel("Perigee-Subset-" + mult)
		if err != nil {
			t.Fatal(err)
		}
		return 1 - s.Median()/r.Median()
	}
	low := improvement("0.1x")
	high := improvement("10x")
	t.Logf("improvement at 0.1x validation: %.1f%%, at 10x: %.1f%%", low*100, high*100)
	if low <= high {
		t.Errorf("Perigee advantage should shrink with validation delay: 0.1x=%.2f 10x=%.2f", low, high)
	}
	if len(res.Series) != 2*len(ValidationMultipliers) {
		t.Fatalf("got %d series, want %d", len(res.Series), 2*len(ValidationMultipliers))
	}
}

func TestFigure4bPerigeeApproachesIdeal(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	opt := ShortOptions()
	res, err := Figure4b(opt)
	if err != nil {
		t.Fatal(err)
	}
	med := map[string]float64{}
	for _, s := range res.Series {
		med[s.Label] = s.Median()
	}
	if !(med[LabelSubset] < med[LabelRandom]) {
		t.Errorf("Perigee-Subset (%.0f) should beat random (%.0f) with mining pools", med[LabelSubset], med[LabelRandom])
	}
	// Perigee should close a large part of the random-to-ideal gap.
	gapClosed := (med[LabelRandom] - med[LabelSubset]) / (med[LabelRandom] - med[LabelIdeal])
	t.Logf("gap to ideal closed: %.0f%% (medians: %v)", gapClosed*100, med)
	if gapClosed < 0.3 {
		t.Errorf("Perigee closed only %.0f%% of the gap to ideal", gapClosed*100)
	}
}

func TestFigure4cRelayExploited(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	opt := ShortOptions()
	res, err := Figure4c(opt)
	if err != nil {
		t.Fatal(err)
	}
	med := map[string]float64{}
	for _, s := range res.Series {
		med[s.Label] = s.Median()
	}
	if !(med[LabelSubset] < med[LabelRandom]) {
		t.Errorf("Perigee-Subset (%.0f) should beat random (%.0f) with a relay tree", med[LabelSubset], med[LabelRandom])
	}
	t.Logf("medians: %v", med)
}

func TestFigure5SubsetShiftsToLowMode(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence run")
	}
	opt := ShortOptions()
	res, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Histograms) != 4 {
		t.Fatalf("got %d histograms, want 4", len(res.Histograms))
	}
	randomLow := lowModeFraction(res.Histograms[LabelRandom])
	subsetLow := lowModeFraction(res.Histograms[LabelSubset])
	t.Logf("low-latency edge mass: random %.2f, subset %.2f", randomLow, subsetLow)
	if subsetLow <= randomLow {
		t.Errorf("Perigee-Subset low-mode mass %.2f should exceed random %.2f", subsetLow, randomLow)
	}
	for label, h := range res.Histograms {
		var mass float64
		for _, f := range h.Fractions() {
			mass += f
		}
		if mass == 0 {
			t.Errorf("%s histogram is empty", label)
		}
	}
}

func TestTheorem1StretchGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("size sweep")
	}
	opt := tinyOptions()
	opt.Trials = 2
	res, err := Theorem1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(TheoremSizes) {
		t.Fatalf("got %d series, want %d", len(res.Series), len(TheoremSizes))
	}
	first := res.Series[0].Median()
	last := res.Series[len(res.Series)-1].Median()
	t.Logf("random-graph stretch: n=%d -> %.2f, n=%d -> %.2f",
		TheoremSizes[0], first, TheoremSizes[len(TheoremSizes)-1], last)
	if last <= first {
		t.Errorf("random-graph stretch should grow with n: %.2f -> %.2f", first, last)
	}
}

func TestTheorem2StretchBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("size sweep")
	}
	opt := tinyOptions()
	opt.Trials = 2
	res, err := Theorem2(opt)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Series[0].Median()
	last := res.Series[len(res.Series)-1].Median()
	t.Logf("geometric-graph stretch: n=%d -> %.2f, n=%d -> %.2f",
		TheoremSizes[0], first, TheoremSizes[len(TheoremSizes)-1], last)
	// Constant-factor stretch: the largest network's stretch stays within
	// a modest factor of the smallest's.
	if last > first*1.5 {
		t.Errorf("geometric stretch grew too much: %.2f -> %.2f", first, last)
	}
}

func TestRenderContainsSeriesAndNotes(t *testing.T) {
	opt := tinyOptions()
	opt.Nodes = 300
	res, err := Figure1(opt)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"Fig 1", "random-stretch", "geometric-stretch", "median", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	opt := tinyOptions()
	opt.Nodes = 300
	res, err := Run("figure1", opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "figure1" {
		t.Fatalf("dispatched wrong experiment: %s", res.ID)
	}
}

func TestSeriesByLabelMissing(t *testing.T) {
	res := &Result{ID: "x"}
	if _, err := res.SeriesByLabel("nope"); err == nil {
		t.Fatal("expected error for missing label")
	}
}
