package adversary

import (
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/hashpower"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/topology"
)

func testBind(t *testing.T, s Strategy, n int, adversaries []int) *Binding {
	t.Helper()
	b, err := Bind(s, n, adversaries,
		latency.Constant{Nodes: n, D: 10 * time.Millisecond},
		make([]time.Duration, n), rng.New(7).Derive("strategy"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSample(t *testing.T) {
	r := rng.New(1)
	advs, err := Sample(100, 0.15, r.Derive("a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(advs) != 15 {
		t.Fatalf("got %d adversaries, want 15", len(advs))
	}
	seen := make(map[int]bool)
	for _, a := range advs {
		if a < 0 || a >= 100 || seen[a] {
			t.Fatalf("bad adversary set: %v", advs)
		}
		seen[a] = true
	}
	for _, bad := range []float64{-0.1, 1, 1.5} {
		if _, err := Sample(100, bad, r.Derive("b")); err == nil {
			t.Errorf("fraction %v accepted", bad)
		}
	}
}

func TestBindValidation(t *testing.T) {
	lat := latency.Constant{Nodes: 10, D: time.Millisecond}
	fwd := make([]time.Duration, 10)
	r := rng.New(1)
	cases := []struct {
		name string
		run  func() (*Binding, error)
	}{
		{"nil strategy", func() (*Binding, error) { return Bind(nil, 10, nil, lat, fwd, r) }},
		{"out of range", func() (*Binding, error) { return Bind(NewEclipseBias(0), 10, []int{10}, lat, fwd, r) }},
		{"duplicate", func() (*Binding, error) { return Bind(NewEclipseBias(0), 10, []int{3, 3}, lat, fwd, r) }},
		{"short forward", func() (*Binding, error) {
			return Bind(NewEclipseBias(0), 10, nil, lat, fwd[:5], r)
		}},
		{"nil rng", func() (*Binding, error) { return Bind(NewEclipseBias(0), 10, nil, lat, fwd, nil) }},
	}
	for _, tc := range cases {
		if _, err := tc.run(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestBindCopiesForward(t *testing.T) {
	fwd := []time.Duration{time.Second, time.Second, time.Second, time.Second}
	b, err := Bind(NewEclipseBias(0), 4, []int{2}, latency.Constant{Nodes: 4, D: time.Millisecond}, fwd, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if b.Net.Forward[2] != 0 {
		t.Errorf("eclipse-bias did not zero the adversary's validation delay: %v", b.Net.Forward[2])
	}
	if fwd[2] != time.Second {
		t.Error("Bind mutated the caller's forward table")
	}
}

func TestStrategyParameterValidation(t *testing.T) {
	bad := []Strategy{
		NewLatencyLiar(1.0, 0),
		NewLatencyLiar(-0.1, 0),
		NewLatencyLiar(0.5, -time.Second),
		NewWithholdingRelay(-time.Second, 0.5),
		NewWithholdingRelay(time.Second, 1.5),
		NewSybilFlood(0),
		NewEclipseBias(-1),
		NewRegionalPartition(1, 1, 2),
		NewRegionalPartition(2, 0, 2),
		NewRegionalPartition(2, 1, 0.5),
	}
	for _, s := range bad {
		if _, err := Bind(s, 10, []int{1}, latency.Constant{Nodes: 10, D: time.Millisecond},
			make([]time.Duration, 10), rng.New(1)); err == nil {
			t.Errorf("%s accepted invalid parameters", s.Name())
		}
	}
}

func TestWithholdingRelaySplitsRoles(t *testing.T) {
	b := testBind(t, NewWithholdingRelay(200*time.Millisecond, 0.5), 20, []int{4, 9, 13, 17})
	silent, delayed := 0, 0
	for _, a := range b.Env.Adversaries {
		switch {
		case b.Net.Silent[a]:
			silent++
		case b.Net.RelayDelay[a] == 200*time.Millisecond:
			delayed++
		default:
			t.Errorf("adversary %d has neither role", a)
		}
	}
	if silent != 2 || delayed != 2 {
		t.Errorf("got %d silent / %d delayed, want 2/2", silent, delayed)
	}
}

func TestLatencyLiarTampersOnlyAdversaryColumns(t *testing.T) {
	b := testBind(t, NewLatencyLiar(0.5, 100*time.Millisecond), 10, []int{3})
	if b.Agent.TamperObservations == nil {
		t.Fatal("latency liar returned no tamper hook")
	}
	if b.Net.RelayDelay[3] != 100*time.Millisecond {
		t.Errorf("liar withhold delay not installed: %v", b.Net.RelayDelay[3])
	}
	neighbors := []int{2, 3, 7}
	offsets := [][]time.Duration{
		{10 * time.Millisecond, 40 * time.Millisecond, Censored},
		{20 * time.Millisecond, Censored, 8 * time.Millisecond},
	}
	b.Agent.TamperObservations(0, neighbors, offsets)
	want := [][]time.Duration{
		{10 * time.Millisecond, 20 * time.Millisecond, Censored},
		{20 * time.Millisecond, Censored, 8 * time.Millisecond},
	}
	for bi := range want {
		for i := range want[bi] {
			if offsets[bi][i] != want[bi][i] {
				t.Errorf("offsets[%d][%d] = %v, want %v", bi, i, offsets[bi][i], want[bi][i])
			}
		}
	}
}

// TestMutableLatencyTransform checks the binding's latency handle: a
// passthrough of the bound model until a strategy installs a transform.
func TestMutableLatencyTransform(t *testing.T) {
	m := testBind(t, NewWithholdingRelay(0, 0), 4, nil).Net.Latency
	if m.N() != 4 {
		t.Fatalf("N = %d", m.N())
	}
	if d := m.Delay(0, 1); d != 10*time.Millisecond {
		t.Fatalf("passthrough delay %v", d)
	}
	m.SetTransform(func(u, v int, d time.Duration) time.Duration {
		if u == 0 || v == 0 {
			return 3 * d
		}
		return d
	})
	if d := m.Delay(0, 1); d != 30*time.Millisecond {
		t.Errorf("transformed delay %v, want 30ms", d)
	}
	if d := m.Delay(1, 2); d != 10*time.Millisecond {
		t.Errorf("untouched delay %v, want 10ms", d)
	}
	m.SetTransform(nil)
	if d := m.Delay(0, 1); d != 10*time.Millisecond {
		t.Errorf("cleared transform still active: %v", d)
	}
}

// testEngine builds a small Subset engine with the binding applied.
func testEngine(t *testing.T, n int, b *Binding) *core.Engine {
	t.Helper()
	tbl, err := topology.Random(n, 4, 10, rng.New(5).Derive("tbl"))
	if err != nil {
		t.Fatal(err)
	}
	power, err := hashpower.Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams(core.Subset)
	params.OutDegree = 4
	params.RoundBlocks = 10
	cfg := core.Config{
		Method:  core.Subset,
		Params:  params,
		Table:   tbl,
		Latency: latency.Constant{Nodes: n, D: 10 * time.Millisecond},
		Forward: make([]time.Duration, n),
		Power:   power,
		Rand:    rng.New(5).Derive("engine"),
	}
	b.Apply(&cfg)
	engine, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

func TestSybilFloodGrowsAdversaryEdges(t *testing.T) {
	const n = 40
	advs := []int{1, 5, 9}
	b := testBind(t, NewSybilFlood(3), n, advs)
	for _, a := range advs {
		if !b.Net.Silent[a] || !b.Net.Frozen[a] {
			t.Fatalf("sybil %d not silent+frozen", a)
		}
	}
	engine := testEngine(t, n, b)
	before := 0
	seeded := make(map[[2]int]bool)
	for _, a := range advs {
		before += engine.Table().OutDegree(a)
		for _, u := range engine.Table().OutNeighbors(a) {
			seeded[[2]int{a, u}] = true
		}
	}
	if _, err := engine.Run(3); err != nil {
		t.Fatal(err)
	}
	after := 0
	for _, a := range advs {
		after += engine.Table().OutDegree(a)
		for _, u := range engine.Table().OutNeighbors(a) {
			// Seed-topology edges persist (sybils are frozen); every edge
			// the flood added must target an honest victim.
			if !seeded[[2]int{a, u}] && b.Env.IsAdversary[u] {
				t.Errorf("sybil %d dialed fellow sybil %d", a, u)
			}
		}
	}
	// 3 sybils x 3 dials x 3 rounds on an uncontended 40-node network.
	if after < before+9*3-3 {
		t.Errorf("sybil out-degree grew %d -> %d; flooding too weak", before, after)
	}
}

func TestRegionalPartitionInflatesMidRun(t *testing.T) {
	const n = 30
	b := testBind(t, NewRegionalPartition(2, 2, 5), n, nil)
	if b.Agent.AfterRound == nil {
		t.Fatal("partition returned no per-round action")
	}
	engine := testEngine(t, n, b)
	lat := b.Net.Latency
	if d := lat.Delay(0, n-1); d != 10*time.Millisecond {
		t.Fatalf("pre-activation cross-group delay %v", d)
	}
	if _, err := engine.Run(3); err != nil {
		t.Fatal(err)
	}
	if d := lat.Delay(0, n-1); d != 50*time.Millisecond {
		t.Errorf("post-activation cross-group delay %v, want 50ms", d)
	}
	if d := lat.Delay(0, 1); d != 10*time.Millisecond {
		t.Errorf("intra-group delay changed: %v", d)
	}
	// The engine's cached simulator was invalidated: λ evaluation after
	// the partition reflects the inflated cross-group links even if the
	// topology itself did not change this round.
	delays, err := engine.Delays(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range delays {
		if d >= 20*time.Millisecond {
			return // at least one source pays an inflated path
		}
	}
	t.Error("no source's λ reflects the partition")
}

// TestRegionalPartitionReachesSurvivingEdges: the partition changes the
// model's delays and then calls Control.InvalidateNetwork, in a round whose
// rewiring also moved the table version. The engine carries a surviving
// edge's delay across rounds, so it is the invalidation alone that makes
// the links the round kept pay the inflated delay: afterwards the engine
// must agree, source for source, with one built fresh on the same topology
// and the transformed model.
func TestRegionalPartitionReachesSurvivingEdges(t *testing.T) {
	const n = 30
	b := testBind(t, NewRegionalPartition(2, 2, 5), n, nil)
	engine := testEngine(t, n, b)
	if _, err := engine.Run(3); err != nil {
		t.Fatal(err)
	}
	got, err := engine.Delays(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	power, err := hashpower.Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewEngine(core.Config{
		Method:  core.Subset,
		Params:  engine.Params(),
		Table:   engine.Table().Clone(),
		Latency: b.Net.Latency, // transform installed
		Forward: b.Net.Forward,
		Power:   power,
		Rand:    rng.New(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Delays(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("source %d: λ %v on the engine that lived through the partition, %v on a fresh one", v, got[v], want[v])
		}
	}
}

func TestEclipseBiasSleeperFlipsSilent(t *testing.T) {
	const n = 30
	advs := []int{2, 11}
	b := testBind(t, NewEclipseBias(2), n, advs)
	engine := testEngine(t, n, b)
	if _, err := engine.Run(1); err != nil {
		t.Fatal(err)
	}
	for _, a := range advs {
		if b.Net.Silent[a] {
			t.Fatalf("sleeper activated early")
		}
	}
	if _, err := engine.Run(1); err != nil {
		t.Fatal(err)
	}
	for _, a := range advs {
		if !b.Net.Silent[a] {
			t.Errorf("sleeper %d not silent after attack round", a)
		}
	}
}

func TestBuiltinsAreDistinctAndNamed(t *testing.T) {
	seen := make(map[string]bool)
	for _, s := range Builtins() {
		if s.Name() == "" || s.Brief() == "" {
			t.Errorf("strategy %T lacks name or brief", s)
		}
		if seen[s.Name()] {
			t.Errorf("duplicate strategy name %q", s.Name())
		}
		seen[s.Name()] = true
	}
	if len(seen) < 5 {
		t.Errorf("only %d built-in strategies", len(seen))
	}
}

func TestEngineControlSurface(t *testing.T) {
	b := testBind(t, NewEclipseBias(0), 20, nil)
	engine := testEngine(t, 20, b)
	ctl := EngineControl(engine)
	if ctl.N() != 20 {
		t.Fatalf("N = %d", ctl.N())
	}
	outs := ctl.OutNeighbors(0)
	if len(outs) != ctl.OutDegree(0) || len(outs) == 0 {
		t.Fatalf("out-degree mismatch: %v vs %d", outs, ctl.OutDegree(0))
	}
	if !ctl.HasOut(0, outs[0]) {
		t.Error("HasOut denies an existing edge")
	}
	if err := ctl.Disconnect(0, outs[0]); err != nil {
		t.Fatal(err)
	}
	if ctl.HasOut(0, outs[0]) {
		t.Error("edge survived Disconnect")
	}
	if err := ctl.Connect(0, outs[0]); err != nil {
		t.Fatal(err)
	}
	if !ctl.HasOut(0, outs[0]) {
		t.Error("edge missing after Connect")
	}
}
