package perigee

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestScoringString(t *testing.T) {
	if ScoringVanilla.String() != "Perigee-Vanilla" {
		t.Fatalf("got %q", ScoringVanilla.String())
	}
	if ScoringUCB.String() != "Perigee-UCB" {
		t.Fatalf("got %q", ScoringUCB.String())
	}
	if ScoringSubset.String() != "Perigee-Subset" {
		t.Fatalf("got %q", ScoringSubset.String())
	}
}

func TestNewValidatesSize(t *testing.T) {
	if _, err := New(3); err == nil {
		t.Fatal("expected error for tiny network")
	}
}

func TestNetworkLifecycle(t *testing.T) {
	net, err := New(60, WithRoundBlocks(10))
	if err != nil {
		t.Fatal(err)
	}
	before, err := net.BroadcastDelays(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 60 {
		t.Fatalf("got %d delays, want 60", len(before))
	}
	sum, err := net.Step()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Round != 1 || sum.Blocks != 10 {
		t.Fatalf("round summary %+v", sum)
	}
	if sum.ConnectionsDropped == 0 || sum.ConnectionsAdded == 0 {
		t.Fatalf("round should churn connections: %+v", sum)
	}
	if err := net.Run(2); err != nil {
		t.Fatal(err)
	}
	if net.Rounds() != 3 {
		t.Fatalf("rounds = %d, want 3", net.Rounds())
	}
	if got := len(net.OutNeighbors(0)); got != 8 {
		t.Fatalf("out-degree %d, want 8", got)
	}
	if net.Scoring() != ScoringSubset {
		t.Fatalf("scoring = %v, want subset default", net.Scoring())
	}
	adj := net.Adjacency()
	if len(adj) != 60 {
		t.Fatalf("adjacency covers %d nodes", len(adj))
	}
}

func TestNetworkDeterministicAcrossRuns(t *testing.T) {
	build := func() []time.Duration {
		net, err := New(50, WithSeed(99), WithRoundBlocks(5))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Run(2); err != nil {
			t.Fatal(err)
		}
		ds, err := net.BroadcastDelays(0.9)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d delay differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestExploreZeroHonored: WithExplore(0) means zero exploration (no
// connections are dropped or added), an unset explore count means the
// paper's default of 2, and a negative one is rejected.
func TestExploreZeroHonored(t *testing.T) {
	run := func(t *testing.T, net *Network) RoundSummary {
		t.Helper()
		sum, err := net.Step()
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	zero, err := New(50, WithExplore(0), WithRoundBlocks(5))
	if err != nil {
		t.Fatal(err)
	}
	if sum := run(t, zero); sum.ConnectionsDropped != 0 || sum.ConnectionsAdded != 0 {
		t.Fatalf("WithExplore(0) should freeze the topology, got %+v", sum)
	}
	unset, err := New(50, WithRoundBlocks(5))
	if err != nil {
		t.Fatal(err)
	}
	if sum := run(t, unset); sum.ConnectionsDropped == 0 {
		t.Fatalf("an unset explore count should default to 2, got %+v", sum)
	}
	if _, err := New(50, WithExplore(-2)); err == nil {
		t.Fatal("negative explore should be rejected")
	}
}

func TestArgumentValidation(t *testing.T) {
	net, err := New(50, WithRoundBlocks(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, -0.5, 1.5} {
		if _, err := net.BroadcastDelays(frac); err == nil || !strings.Contains(err.Error(), "outside (0, 1]") {
			t.Fatalf("BroadcastDelays(%v) = %v, want clear range error", frac, err)
		}
	}
	for _, p := range []float64{-0.1, 1.5} {
		if _, err := New(50, WithPercentile(p)); err == nil {
			t.Fatalf("WithPercentile(%v) should be rejected", p)
		}
	}
	if _, err := New(50, WithPercentile(0)); err == nil {
		t.Fatal("WithPercentile(0) should be rejected")
	}
	if _, err := New(50, WithRoundBlocks(-1)); err == nil {
		t.Fatal("WithRoundBlocks(-1) should be rejected")
	}
	if _, err := New(50, WithValidation(FixedValidation(-time.Millisecond))); err == nil {
		t.Fatal("a negative validation delay should be rejected")
	}
}

func TestLatencyMatrixValidation(t *testing.T) {
	if _, err := LatencyMatrix(nil); err == nil {
		t.Fatal("empty matrix should be rejected")
	}
	asym := [][]time.Duration{
		{0, time.Millisecond},
		{2 * time.Millisecond, 0},
	}
	if _, err := LatencyMatrix(asym); err == nil {
		t.Fatal("asymmetric matrix should be rejected")
	}
	diag := [][]time.Duration{
		{time.Millisecond, time.Millisecond},
		{time.Millisecond, 0},
	}
	if _, err := LatencyMatrix(diag); err == nil {
		t.Fatal("non-zero diagonal should be rejected")
	}
	small, err := LatencyMatrix([][]time.Duration{{0, time.Millisecond}, {time.Millisecond, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(50, WithLatency(small)); err == nil {
		t.Fatal("undersized latency model should be rejected")
	}
}

// testMatrix builds a deterministic symmetric delay matrix for n nodes.
func testMatrix(n int) [][]time.Duration {
	delays := make([][]time.Duration, n)
	for i := range delays {
		delays[i] = make([]time.Duration, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := time.Duration(5+(i+j)%40) * time.Millisecond
			delays[i][j], delays[j][i] = d, d
		}
	}
	return delays
}

// TestCustomScenarioEndToEnd is the acceptance check for the composable
// API: a measured latency matrix, pooled hash power, and per-round churn
// via Dynamics run entirely through the public surface, and Workers=1 vs
// Workers=8 produce identical results.
func TestCustomScenarioEndToEnd(t *testing.T) {
	lat, err := LatencyMatrix(testMatrix(80))
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers int) *Network {
		t.Helper()
		churn := DynamicsFunc(func(ctl *Control, round int) error {
			return ctl.Churn(ctl.Rand().Perm(ctl.N())[:3]...)
		})
		net, err := New(80,
			WithSeed(11),
			WithRoundBlocks(10),
			WithLatency(lat),
			WithPower(PoolsPower(0.1, 0.9)),
			WithDynamics(churn),
			WithWorkers(workers),
		)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	seq, par := build(1), build(8)
	for r := 0; r < 4; r++ {
		sumSeq, err := seq.Step()
		if err != nil {
			t.Fatal(err)
		}
		sumPar, err := par.Step()
		if err != nil {
			t.Fatal(err)
		}
		if sumSeq != sumPar {
			t.Fatalf("round %d summaries diverge across worker counts: %+v vs %+v", r, sumSeq, sumPar)
		}
	}
	if !reflect.DeepEqual(seq.Adjacency(), par.Adjacency()) {
		t.Fatal("adjacency diverges across worker counts under dynamics")
	}
	dSeq, err := seq.BroadcastDelays(0.9)
	if err != nil {
		t.Fatal(err)
	}
	dPar, err := par.BroadcastDelays(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dSeq, dPar) {
		t.Fatal("delay metrics diverge across worker counts under dynamics")
	}
}

// TestObserverStream checks that observers receive every round — from both
// Step and Run — with edge lists matching the summary counts.
func TestObserverStream(t *testing.T) {
	var rounds []int
	obs := ObserverFunc(func(net *Network, s RoundStats) {
		rounds = append(rounds, s.Summary.Round)
		if len(s.DroppedEdges) != s.Summary.ConnectionsDropped {
			t.Errorf("round %d: %d dropped edges vs summary count %d",
				s.Summary.Round, len(s.DroppedEdges), s.Summary.ConnectionsDropped)
		}
		if len(s.AddedEdges) != s.Summary.ConnectionsAdded {
			t.Errorf("round %d: %d added edges vs summary count %d",
				s.Summary.Round, len(s.AddedEdges), s.Summary.ConnectionsAdded)
		}
		if net.Rounds() != s.Summary.Round {
			t.Errorf("observer sees network at round %d during event %d", net.Rounds(), s.Summary.Round)
		}
	})
	net, err := New(50, WithRoundBlocks(5), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Step(); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rounds, []int{1, 2, 3}) {
		t.Fatalf("observer saw rounds %v, want [1 2 3]", rounds)
	}
}

func TestDynamicsErrorAborts(t *testing.T) {
	boom := DynamicsFunc(func(ctl *Control, round int) error {
		return fmt.Errorf("boom at round %d", round)
	})
	net, err := New(50, WithRoundBlocks(5), WithDynamics(boom))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Step(); err == nil || !strings.Contains(err.Error(), "boom at round 1") {
		t.Fatalf("dynamics error should abort the run, got %v", err)
	}
}

func TestScenarioRegistry(t *testing.T) {
	infos := Scenarios()
	if len(infos) == 0 {
		t.Fatal("no scenarios registered")
	}
	found := false
	for _, s := range infos {
		if s.ID == "figure3a" {
			found = true
			if s.Brief == "" {
				t.Fatal("figure3a has no description")
			}
		}
	}
	if !found {
		t.Fatal("figure3a missing from the registry")
	}

	opt := QuickScenarioOptions()
	opt.Nodes = 300
	opt.Trials = 1
	res, err := RunScenario("figure1", opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "figure1" || res.Render() == "" {
		t.Fatal("scenario dispatch broken")
	}
	if _, err := RunScenario("bogus", opt); err == nil {
		t.Fatal("expected error for unknown scenario")
	}

	if err := RegisterScenario("", "x", func(ScenarioOptions) (*ScenarioResult, error) { return nil, nil }); err == nil {
		t.Fatal("empty scenario ID should be rejected")
	}
	if err := RegisterScenario("test-custom", "a registered test scenario",
		func(opt ScenarioOptions) (*ScenarioResult, error) {
			return &ScenarioResult{ID: "test-custom", Title: "test", Options: opt}, nil
		}); err != nil {
		t.Fatal(err)
	}
	if err := RegisterScenario("test-custom", "dup", func(ScenarioOptions) (*ScenarioResult, error) { return nil, nil }); err == nil {
		t.Fatal("duplicate scenario ID should be rejected")
	}
	res, err = RunScenario("test-custom", opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "test-custom" {
		t.Fatalf("custom scenario returned %q", res.ID)
	}
}

func TestPowerDistVariants(t *testing.T) {
	for name, dist := range map[string]PowerDist{
		"uniform":     UniformPower(),
		"exponential": ExponentialPower(),
		"pools":       PoolsPower(0.1, 0.9),
	} {
		net, err := New(50, WithPower(dist), WithRoundBlocks(5))
		if err != nil {
			t.Fatalf("%s power: %v", name, err)
		}
		if _, err := net.Step(); err != nil {
			t.Fatalf("%s power: %v", name, err)
		}
	}
}

func TestScoringVariants(t *testing.T) {
	for _, s := range []Scoring{ScoringVanilla, ScoringUCB, ScoringSubset} {
		net, err := New(50, WithScoring(s), WithRoundBlocks(5))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if _, err := net.Step(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
}

func TestDefaultScenarioOptionsScale(t *testing.T) {
	opt := DefaultScenarioOptions()
	if opt.Nodes != 1000 || opt.Trials != 3 {
		t.Fatalf("default scenario options changed: %+v", opt)
	}
}

// ExampleNew shows the options builder: every unset axis takes the
// paper's evaluation default.
func ExampleNew() {
	net, err := New(60,
		WithSeed(42),
		WithRoundBlocks(10),
		WithPower(PoolsPower(0.1, 0.9)),
	)
	if err != nil {
		panic(err)
	}
	if err := net.Run(3); err != nil {
		panic(err)
	}
	fmt.Println("rounds:", net.Rounds())
	fmt.Println("out-degree:", len(net.OutNeighbors(0)))
	// Output:
	// rounds: 3
	// out-degree: 8
}

// ExampleWithLatency plugs a measured latency matrix into an otherwise
// default network — the custom-environment path that previously required
// editing internal packages.
func ExampleWithLatency() {
	n := 12
	delays := make([][]time.Duration, n)
	for i := range delays {
		delays[i] = make([]time.Duration, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := time.Duration(10+(i+j)%20) * time.Millisecond
			delays[i][j], delays[j][i] = d, d
		}
	}
	model, err := LatencyMatrix(delays)
	if err != nil {
		panic(err)
	}
	net, err := New(n, WithLatency(model), WithOutDegree(3), WithExplore(1), WithRoundBlocks(5))
	if err != nil {
		panic(err)
	}
	ds, err := net.BroadcastDelays(1.0)
	if err != nil {
		panic(err)
	}
	fmt.Println("nodes measured:", len(ds))
	// Output:
	// nodes measured: 12
}

// ExampleWithObserver streams per-round telemetry without polling.
func ExampleWithObserver() {
	obs := ObserverFunc(func(net *Network, s RoundStats) {
		fmt.Printf("round %d: %d blocks\n", s.Summary.Round, s.Summary.Blocks)
	})
	net, err := New(50, WithRoundBlocks(5), WithObserver(obs))
	if err != nil {
		panic(err)
	}
	if err := net.Run(2); err != nil {
		panic(err)
	}
	// Output:
	// round 1: 5 blocks
	// round 2: 5 blocks
}

// TestScaleOptionsEndToEnd exercises the scale-stack options through the
// public surface: a network with an observation window and eight workers
// must evolve bit-for-bit like the plain configuration whose semantics they
// preserve (the window is full-width here, so both knobs are
// result-neutral).
func TestScaleOptionsEndToEnd(t *testing.T) {
	build := func(opts ...Option) *Network {
		t.Helper()
		base := []Option{WithSeed(17), WithRoundBlocks(20)}
		net, err := New(80, append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	plain := build()
	scaled := build(
		WithObservationWindow(20), // == RoundBlocks: observes every block
		WithWorkers(8),
	)
	for r := 0; r < 4; r++ {
		sumPlain, err := plain.Step()
		if err != nil {
			t.Fatal(err)
		}
		sumScaled, err := scaled.Step()
		if err != nil {
			t.Fatal(err)
		}
		if sumPlain != sumScaled {
			t.Fatalf("round %d summaries diverge under the scale stack: %+v vs %+v", r, sumPlain, sumScaled)
		}
	}
	if !reflect.DeepEqual(plain.Adjacency(), scaled.Adjacency()) {
		t.Fatal("adjacency diverges under the scale stack")
	}
	dPlain, err := plain.BroadcastDelays(0.9)
	if err != nil {
		t.Fatal(err)
	}
	dScaled, err := scaled.BroadcastDelays(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dPlain, dScaled) {
		t.Fatal("delay metrics diverge under the scale stack")
	}
}

// TestScaleOptionValidation covers the observation window's argument check.
func TestScaleOptionValidation(t *testing.T) {
	if _, err := New(50, WithObservationWindow(-1)); err == nil {
		t.Fatal("WithObservationWindow(-1) should be rejected")
	}
}
