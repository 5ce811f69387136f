package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestFreeridePunishesSilentNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("extension run")
	}
	opt := ShortOptions()
	opt.Rounds = 8
	res, err := Freeride(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(res.Series))
	}
	// The incentive claim lives in the notes; parse the penalty signs out
	// of the measured means instead of the rendered text by re-checking
	// the note ordering contract.
	if len(res.Notes) != 3 {
		t.Fatalf("got %d notes, want 3: %v", len(res.Notes), res.Notes)
	}
	out := res.Render()
	if !strings.Contains(out, "silent nodes receive") {
		t.Fatalf("render missing incentive summary:\n%s", out)
	}
	t.Logf("\n%s", out)
}

func TestFreerideIncentiveGap(t *testing.T) {
	if testing.Short() {
		t.Skip("extension run")
	}
	// Direct numeric check of the incentive claim on a small network:
	// under Perigee, silent nodes must suffer a larger relative receive
	// penalty than under the static random topology.
	opt := ShortOptions()
	opt.Nodes = 200
	opt.Rounds = 8
	res, err := Freeride(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Notes carry "(X% penalty)" strings; recompute from series medians is
	// not possible (receive delays aren't series), so assert the note
	// numbers: note[0] = random penalty, note[1] = perigee penalty.
	randomPenalty := parsePenalty(t, res.Notes[0])
	perigeePenalty := parsePenalty(t, res.Notes[1])
	t.Logf("receive penalty for silent nodes: random %.0f%%, perigee %.0f%%", randomPenalty, perigeePenalty)
	if perigeePenalty <= randomPenalty {
		t.Errorf("Perigee should punish free-riders harder than random: %.0f%% <= %.0f%%",
			perigeePenalty, randomPenalty)
	}
}

func parsePenalty(t *testing.T, note string) float64 {
	t.Helper()
	open := strings.LastIndex(note, "(")
	end := strings.LastIndex(note, "% penalty)")
	if open == -1 || end == -1 || end <= open {
		t.Fatalf("note %q missing penalty", note)
	}
	var v float64
	if _, err := fmt.Sscanf(note[open+1:end], "%f", &v); err != nil {
		t.Fatalf("parsing penalty from %q: %v", note, err)
	}
	return v
}

func TestChurnKeepsAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("extension run")
	}
	opt := ShortOptions()
	opt.Rounds = 8
	res, err := Churn(opt)
	if err != nil {
		t.Fatal(err)
	}
	med := map[string]float64{}
	for _, s := range res.Series {
		med[s.Label] = s.Median()
		if math.IsInf(s.Median(), 1) {
			t.Fatalf("%s median is infinite", s.Label)
		}
	}
	if !(med[LabelSubset+"-churn"] < med[LabelRandom]) {
		t.Errorf("Perigee under churn (%.0f) should still beat random (%.0f)",
			med[LabelSubset+"-churn"], med[LabelRandom])
	}
	if !(med[LabelSubset+"-stable"] <= med[LabelSubset+"-churn"]) {
		t.Errorf("churn (%.0f) should not beat the stable run (%.0f)",
			med[LabelSubset+"-churn"], med[LabelSubset+"-stable"])
	}
	t.Logf("medians: %v", med)
}

func TestBandwidthAvoidsSlowUploaders(t *testing.T) {
	if testing.Short() {
		t.Skip("extension run")
	}
	opt := ShortOptions()
	opt.Nodes = 200
	opt.Rounds = 8
	res, err := Bandwidth(opt)
	if err != nil {
		t.Fatal(err)
	}
	randomS, err := res.SeriesByLabel(LabelRandom)
	if err != nil {
		t.Fatal(err)
	}
	subsetS, err := res.SeriesByLabel(LabelSubset)
	if err != nil {
		t.Fatal(err)
	}
	if !(subsetS.Median() < randomS.Median()) {
		t.Errorf("Perigee (%.0f) should beat random (%.0f) under bandwidth skew",
			subsetS.Median(), randomS.Median())
	}
	t.Logf("bandwidth skew: random %.0f ms, perigee %.0f ms", randomS.Median(), subsetS.Median())
}

func TestExtensionIDsRegistered(t *testing.T) {
	for _, id := range []string{"freeride", "churn", "bandwidth", "eclipse", "convergence"} {
		if _, err := Describe(id); err != nil {
			t.Fatalf("%s not registered: %v", id, err)
		}
	}
}

func TestConvergenceTrajectories(t *testing.T) {
	if testing.Short() {
		t.Skip("extension run")
	}
	opt := ShortOptions()
	opt.Rounds = 10
	res, err := Convergence(opt)
	if err != nil {
		t.Fatal(err)
	}
	p90, err := res.SeriesByLabel("p90-coverage")
	if err != nil {
		t.Fatal(err)
	}
	p50, err := res.SeriesByLabel("p50-coverage")
	if err != nil {
		t.Fatal(err)
	}
	if len(p90.Mean) != opt.Rounds || len(p50.Mean) != opt.Rounds {
		t.Fatalf("trajectory lengths %d/%d, want %d", len(p90.Mean), len(p50.Mean), opt.Rounds)
	}
	// The 90%-coverage delay must end well below where it started: that
	// is the metric Perigee optimizes.
	first, last := p90.Mean[0], p90.Mean[len(p90.Mean)-1]
	if !(last < first) {
		t.Errorf("90%% trajectory did not improve: %.0f -> %.0f", first, last)
	}
	// 50%-coverage delay is never above the 90%-coverage delay.
	for i := range p90.Mean {
		if p50.Mean[i] > p90.Mean[i] {
			t.Errorf("round %d: 50%% delay %.0f above 90%% delay %.0f", i, p50.Mean[i], p90.Mean[i])
		}
	}
	t.Logf("p90: %.0f -> %.0f ms; p50: %.0f -> %.0f ms (violations %d vs %d)",
		first, last, p50.Mean[0], p50.Mean[len(p50.Mean)-1],
		monotoneViolations(p90.Mean), monotoneViolations(p50.Mean))
}

// TestConvergenceReferenceCoverage checks the random reference medians are
// taken at the scenario's own 90% and 50% coverage, whatever
// Options.Fraction says: at Fraction 0.5 the two still differ.
func TestConvergenceReferenceCoverage(t *testing.T) {
	opt := tinyOptions()
	opt.Nodes = 60
	opt.Rounds = 2
	opt.RoundBlocks = 10
	opt.Fraction = 0.5
	res, err := Convergence(opt)
	if err != nil {
		t.Fatal(err)
	}
	var r90, r50 float64
	if _, err := fmt.Sscanf(res.Notes[0], "random reference medians: %f ms (90%% coverage), %f ms (50%% coverage)",
		&r90, &r50); err != nil {
		t.Fatalf("parsing %q: %v", res.Notes[0], err)
	}
	if r90 <= r50 {
		t.Errorf("90%% coverage reference %.0f ms is not above the 50%% one %.0f ms", r90, r50)
	}
}

func TestEclipseTrustGainWithoutFullCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("extension run")
	}
	opt := ShortOptions()
	opt.Nodes = 200
	opt.Rounds = 8
	res, err := Eclipse(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Notes) != 3 {
		t.Fatalf("got %d notes: %v", len(res.Notes), res.Notes)
	}
	randomShare, randomEclipsed := parseCapture(t, res.Notes[0])
	perigeeShare, perigeeEclipsed := parseCapture(t, res.Notes[1])
	t.Logf("adversarial out-slot share: random %.0f%% (eclipsed %d), perigee %.0f%% (eclipsed %d)",
		randomShare, randomEclipsed, perigeeShare, perigeeEclipsed)
	// Fast adversaries earn over-representation relative to the random
	// baseline (the trust-gain attack vector §6 describes)...
	if perigeeShare <= randomShare {
		t.Errorf("fast adversaries gained nothing: perigee %.0f%% <= random %.0f%%", perigeeShare, randomShare)
	}
	// ...but the exploration quota keeps full neighborhood capture rare.
	if perigeeEclipsed > opt.Nodes/50 {
		t.Errorf("%d honest nodes fully eclipsed; exploration should keep this near zero", perigeeEclipsed)
	}
}

func parseCapture(t *testing.T, note string) (share float64, eclipsed int) {
	t.Helper()
	if _, err := fmt.Sscanf(note[strings.Index(note, "hold "):],
		"hold %f%% of honest out-slots; %d honest nodes", &share, &eclipsed); err != nil {
		t.Fatalf("parsing %q: %v", note, err)
	}
	return share, eclipsed
}
