package core

import (
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/hashpower"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/topology"
)

// testNetwork bundles a small geographic network for engine tests.
type testNetwork struct {
	table   *topology.Table
	lat     latency.Model
	forward []time.Duration
	power   []float64
	root    *rng.RNG
}

func newTestNetwork(t *testing.T, n int, seed uint64) *testNetwork {
	t.Helper()
	root := rng.New(seed)
	u, err := geo.SampleUniverse(n, root.Derive("universe"))
	if err != nil {
		t.Fatal(err)
	}
	lat, err := latency.NewGeographic(u, root.Derive("latency"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := topology.Random(n, 8, 20, root.Derive("topology"))
	if err != nil {
		t.Fatal(err)
	}
	forward := make([]time.Duration, n)
	fr := root.Derive("forward")
	for i := range forward {
		forward[i] = time.Duration(fr.ExpFloat64() * float64(50*time.Millisecond))
	}
	power, err := hashpower.Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	return &testNetwork{table: tbl, lat: lat, forward: forward, power: power, root: root}
}

func (tn *testNetwork) config(m Method, params Params) Config {
	return Config{
		Method:  m,
		Params:  params,
		Table:   tn.table,
		Latency: tn.lat,
		Forward: tn.forward,
		Power:   tn.power,
		Rand:    tn.root.Derive("engine"),
	}
}

func TestNewEngineValidation(t *testing.T) {
	tn := newTestNetwork(t, 50, 1)
	good := tn.config(Subset, Params{})
	if _, err := NewEngine(good); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(Config) Config
	}{
		{"invalid method", func(c Config) Config { c.Method = Method(9); return c }},
		{"nil table", func(c Config) Config { c.Table = nil; return c }},
		{"nil latency", func(c Config) Config { c.Latency = nil; return c }},
		{"forward mismatch", func(c Config) Config { c.Forward = c.Forward[:10]; return c }},
		{"power mismatch", func(c Config) Config { c.Power = c.Power[:10]; return c }},
		{"frozen mismatch", func(c Config) Config { c.Frozen = make([]bool, 3); return c }},
		{"nil rng", func(c Config) Config { c.Rand = nil; return c }},
		{"bad percentile", func(c Config) Config {
			p := DefaultParams(Subset)
			p.Percentile = 1.5
			c.Params = p
			return c
		}},
		{"explore above degree", func(c Config) Config {
			p := DefaultParams(Subset)
			p.Explore = 99
			c.Params = p
			return c
		}},
		{"degree above n", func(c Config) Config {
			p := DefaultParams(Subset)
			p.OutDegree = 60
			c.Params = p
			return c
		}},
		{"zero round blocks", func(c Config) Config {
			p := DefaultParams(Subset)
			p.RoundBlocks = 0
			c.Params = p
			return c
		}},
		{"negative ucb constant", func(c Config) Config {
			p := DefaultParams(UCB)
			p.UCBConstant = -1
			c.Params = p
			return c
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewEngine(tc.mutate(good)); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(Subset)
	if p.OutDegree != 8 || p.Explore != 2 || p.RoundBlocks != 100 || p.Percentile != 0.9 {
		t.Fatalf("subset defaults wrong: %+v", p)
	}
	u := DefaultParams(UCB)
	if u.RoundBlocks != 1 || u.Explore != 0 {
		t.Fatalf("UCB defaults wrong: %+v", u)
	}
}

func TestEngineDegreeInvariantsAcrossRounds(t *testing.T) {
	tn := newTestNetwork(t, 60, 2)
	params := DefaultParams(Subset)
	params.RoundBlocks = 20
	e, err := NewEngine(tn.config(Subset, params))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		rep, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Unfilled != 0 {
			t.Fatalf("round %d: %d unfilled slots", round, rep.Unfilled)
		}
		if err := e.Table().Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for v := 0; v < e.N(); v++ {
			if got := e.Table().OutDegree(v); got != 8 {
				t.Fatalf("round %d node %d out-degree %d, want 8", round, v, got)
			}
			if got := e.Table().InDegree(v); got > 20 {
				t.Fatalf("round %d node %d in-degree %d above cap", round, v, got)
			}
		}
	}
	if e.Round() != 5 {
		t.Fatalf("round counter = %d, want 5", e.Round())
	}
}

func TestEngineRoundReplacesExploreCount(t *testing.T) {
	tn := newTestNetwork(t, 60, 3)
	params := DefaultParams(Vanilla)
	params.RoundBlocks = 10
	e, err := NewEngine(tn.config(Vanilla, params))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Step()
	if err != nil {
		t.Fatal(err)
	}
	// Every node keeps 6 of 8 and explores 2: drops = adds = 2 per node.
	if rep.Dropped != 2*60 {
		t.Fatalf("dropped %d connections, want %d", rep.Dropped, 2*60)
	}
	if rep.Added != rep.Dropped {
		t.Fatalf("added %d != dropped %d", rep.Added, rep.Dropped)
	}
}

func TestEngineDeterministic(t *testing.T) {
	runOnce := func() [][]int {
		tn := newTestNetwork(t, 40, 11)
		params := DefaultParams(Subset)
		params.RoundBlocks = 10
		e, err := NewEngine(tn.config(Subset, params))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(3); err != nil {
			t.Fatal(err)
		}
		return e.Adjacency()
	}
	a := runOnce()
	b := runOnce()
	for v := range a {
		if len(a[v]) != len(b[v]) {
			t.Fatalf("node %d adjacency differs", v)
		}
		for i := range a[v] {
			if a[v][i] != b[v][i] {
				t.Fatalf("node %d adjacency differs: %v vs %v", v, a[v], b[v])
			}
		}
	}
}

func TestEngineFrozenNodesKeepNeighbors(t *testing.T) {
	tn := newTestNetwork(t, 50, 4)
	frozen := make([]bool, 50)
	frozen[7] = true
	frozen[12] = true
	cfg := tn.config(Vanilla, Params{})
	cfg.Frozen = frozen
	before7 := tn.table.OutNeighbors(7)
	before12 := tn.table.OutNeighbors(12)
	params := DefaultParams(Vanilla)
	params.RoundBlocks = 5
	cfg.Params = params
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	after7 := e.Table().OutNeighbors(7)
	after12 := e.Table().OutNeighbors(12)
	if !equalInts(before7, after7) || !equalInts(before12, after12) {
		t.Fatal("frozen nodes changed their outgoing neighbors")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEngineUCBSwapsAtMostOnePerRound(t *testing.T) {
	tn := newTestNetwork(t, 50, 5)
	params := DefaultParams(UCB)
	e, err := NewEngine(tn.config(UCB, params))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		before := make(map[int][]int, 50)
		for v := 0; v < 50; v++ {
			before[v] = e.Table().OutNeighbors(v)
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 50; v++ {
			after := e.Table().OutNeighbors(v)
			removed := diffCount(before[v], after)
			if removed > 1 {
				t.Fatalf("round %d: node %d dropped %d neighbors in one UCB round", round, v, removed)
			}
		}
	}
}

// diffCount counts elements of a missing from b.
func diffCount(a, b []int) int {
	set := make(map[int]bool, len(b))
	for _, x := range b {
		set[x] = true
	}
	missing := 0
	for _, x := range a {
		if !set[x] {
			missing++
		}
	}
	return missing
}

// TestEnginePinnedEdgesSurvive pins two edges into the engine's table:
// neither scoring rounds nor churning both ends of one of them removes a
// pinned edge from the communication graph.
func TestEnginePinnedEdgesSurvive(t *testing.T) {
	tn := newTestNetwork(t, 40, 6)
	pins := [][2]int{{0, 39}, {1, 38}}
	for _, p := range pins {
		if err := tn.table.Pin(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	cfg := tn.config(Subset, func() Params {
		p := DefaultParams(Subset)
		p.RoundBlocks = 5
		return p
	}())
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		adj := e.Adjacency()
		for _, p := range pins {
			if !containsInt(adj[p[0]], p[1]) || !containsInt(adj[p[1]], p[0]) {
				t.Fatalf("%s: pinned edge %d-%d missing from adjacency", when, p[0], p[1])
			}
		}
	}
	if _, err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	check("after 3 rounds")
	if err := e.Churn([]int{0, 39, 1}); err != nil {
		t.Fatal(err)
	}
	check("after churn")
	if _, err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	check("after a round past churn")
	if err := e.Table().Validate(); err != nil {
		t.Fatal(err)
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func TestEngineDelaysMetric(t *testing.T) {
	tn := newTestNetwork(t, 60, 7)
	e, err := NewEngine(tn.config(Subset, func() Params {
		p := DefaultParams(Subset)
		p.RoundBlocks = 5
		return p
	}()))
	if err != nil {
		t.Fatal(err)
	}
	delays, err := e.Delays(0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(delays) != 60 {
		t.Fatalf("got %d delays, want 60", len(delays))
	}
	for v, d := range delays {
		if d <= 0 || d == stats.InfDuration {
			t.Fatalf("node %d has degenerate delay %v", v, d)
		}
	}
	// Delay to 50% is never above delay to 90%.
	half, err := e.Delays(0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range delays {
		if half[v] > delays[v] {
			t.Fatalf("node %d: 50%% delay %v above 90%% delay %v", v, half[v], delays[v])
		}
	}
	// Subset of sources.
	some, err := e.Delays(0.9, []int{3, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0] != delays[3] || some[1] != delays[9] {
		t.Fatalf("subset sources mismatch: %v", some)
	}
}

// TestEngineImprovesPropagation is the core behavioral test: running
// Perigee-Subset must reduce the network-wide 90% propagation delay
// relative to the starting random topology.
func TestEngineImprovesPropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence test")
	}
	tn := newTestNetwork(t, 150, 8)
	params := DefaultParams(Subset)
	params.RoundBlocks = 50
	e, err := NewEngine(tn.config(Subset, params))
	if err != nil {
		t.Fatal(err)
	}
	before, err := e.Delays(0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(12); err != nil {
		t.Fatal(err)
	}
	after, err := e.Delays(0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	medBefore := stats.DurationPercentile(before, 0.5)
	medAfter := stats.DurationPercentile(after, 0.5)
	if medAfter >= medBefore {
		t.Fatalf("Perigee did not improve median delay: before %v, after %v", medBefore, medAfter)
	}
	improvement := 1 - float64(medAfter)/float64(medBefore)
	t.Logf("median 90%%-delay improved %.1f%% (%v -> %v)", improvement*100, medBefore, medAfter)
	if improvement < 0.05 {
		t.Fatalf("improvement %.2f%% suspiciously small", improvement*100)
	}
}

func TestRunValidation(t *testing.T) {
	tn := newTestNetwork(t, 30, 9)
	e, err := NewEngine(tn.config(Vanilla, func() Params {
		p := DefaultParams(Vanilla)
		p.RoundBlocks = 2
		return p
	}()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(0); err == nil {
		t.Fatal("expected error for zero rounds")
	}
	if _, err := e.Run(-3); err == nil {
		t.Fatal("expected error for negative rounds")
	}
}
