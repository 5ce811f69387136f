package netsim

import (
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/topology"
)

func zeros(n int) []time.Duration { return make([]time.Duration, n) }

func uniformForward(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// lineConfig builds a 0-1-2-...-(n-1) path with 10 ms links.
func lineConfig(n int, forward time.Duration) Config {
	adj := make([][]int, n)
	for i := 0; i < n-1; i++ {
		adj[i] = append(adj[i], i+1)
		adj[i+1] = append(adj[i+1], i)
	}
	for i := range adj {
		// keep ascending
		if len(adj[i]) == 2 && adj[i][0] > adj[i][1] {
			adj[i][0], adj[i][1] = adj[i][1], adj[i][0]
		}
	}
	return Config{
		Adj:     adj,
		Latency: latency.Constant{Nodes: n, D: 10 * time.Millisecond},
		Forward: uniformForward(n, forward),
	}
}

func TestBroadcastLine(t *testing.T) {
	sim, err := New(lineConfig(4, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Broadcast(0)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 mines at 0, sends immediately (no forward delay for miner):
	// node 1 at 10ms; node 1 validates 5ms, node 2 at 25ms; node 3 at 40ms.
	want := []time.Duration{0, 10 * time.Millisecond, 25 * time.Millisecond, 40 * time.Millisecond}
	for i, w := range want {
		if res.Arrival[i] != w {
			t.Fatalf("arrival[%d] = %v, want %v", i, res.Arrival[i], w)
		}
	}
}

func TestBroadcastEchoTimestamps(t *testing.T) {
	sim, err := New(lineConfig(3, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Broadcast(0)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 receives at 10ms and forwards at 15ms to both 0 and 2.
	// Node 0 gets the echo from node 1 at 25ms.
	if got := res.EdgeArrival[0][0]; got != 25*time.Millisecond {
		t.Fatalf("echo to source = %v, want 25ms", got)
	}
	// Node 2 receives from 1 at 25ms, forwards at 30ms; echo back at 1: 40ms.
	if got := res.EdgeArrival[1][1]; got != 40*time.Millisecond {
		t.Fatalf("echo 2->1 = %v, want 40ms", got)
	}
	// Node 1's row: from 0 at 10ms.
	if got := res.EdgeArrival[1][0]; got != 10*time.Millisecond {
		t.Fatalf("delivery 0->1 = %v, want 10ms", got)
	}
}

func TestBroadcastEveryEdgeDelivers(t *testing.T) {
	r := rng.New(1)
	tbl, err := topology.Random(100, 4, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	adj := tbl.Undirected()
	sim, err := New(Config{
		Adj:     adj,
		Latency: latency.Constant{Nodes: 100, D: time.Millisecond},
		Forward: zeros(100),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Broadcast(7)
	if err != nil {
		t.Fatal(err)
	}
	if !topology.IsConnected(adj) {
		t.Skip("unlucky disconnected topology")
	}
	for v := range adj {
		if res.Arrival[v] == stats.InfDuration {
			t.Fatalf("node %d never received block", v)
		}
		for i, u := range adj[v] {
			if res.EdgeArrival[v][i] == stats.InfDuration {
				t.Fatalf("edge %d->%d never delivered", u, v)
			}
			if res.EdgeArrival[v][i] < res.Arrival[v] {
				t.Fatalf("edge arrival before first arrival at %d", v)
			}
		}
	}
}

func TestBroadcastMatchesAnalytic(t *testing.T) {
	root := rng.New(42)
	u, err := geo.SampleUniverse(300, root)
	if err != nil {
		t.Fatal(err)
	}
	model, err := latency.NewGeographic(u, root.Derive("lat"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := topology.Random(300, 8, 20, root.Derive("topo"))
	if err != nil {
		t.Fatal(err)
	}
	fwd := make([]time.Duration, 300)
	fr := root.Derive("fwd")
	for i := range fwd {
		fwd[i] = time.Duration(fr.ExpFloat64() * float64(50*time.Millisecond))
	}
	sim, err := New(Config{Adj: tbl.Undirected(), Latency: model, Forward: fwd})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{0, 17, 299} {
		res, err := sim.Broadcast(src)
		if err != nil {
			t.Fatal(err)
		}
		analytic, err := sim.ArrivalAnalytic(src)
		if err != nil {
			t.Fatal(err)
		}
		for v := range analytic {
			if res.Arrival[v] != analytic[v] {
				t.Fatalf("source %d node %d: event %v != analytic %v", src, v, res.Arrival[v], analytic[v])
			}
		}
	}
}

func TestSendIntervalSerializesUploads(t *testing.T) {
	// Star: node 0 in the middle with 3 leaves. With a 7 ms send interval
	// the leaves receive at 10, 17, 24 ms (adjacency order).
	adj := [][]int{{1, 2, 3}, {0}, {0}, {0}}
	interval := make([]time.Duration, 4)
	interval[0] = 7 * time.Millisecond
	sim, err := New(Config{
		Adj:          adj,
		Latency:      latency.Constant{Nodes: 4, D: 10 * time.Millisecond},
		Forward:      zeros(4),
		SendInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Broadcast(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 10 * time.Millisecond, 17 * time.Millisecond, 24 * time.Millisecond}
	for v, w := range want {
		if res.Arrival[v] != w {
			t.Fatalf("arrival[%d] = %v, want %v", v, res.Arrival[v], w)
		}
	}
	// The i-th neighbor's offset is a static edge weight, so the
	// arrival-only pass serves serialized uploads too.
	analytic, err := sim.ArrivalAnalytic(0)
	if err != nil {
		t.Fatal(err)
	}
	for v, w := range want {
		if analytic[v] != w {
			t.Fatalf("analytic arrival[%d] = %v, want %v", v, analytic[v], w)
		}
	}
}

func TestBroadcastDisconnected(t *testing.T) {
	adj := [][]int{{1}, {0}, {3}, {2}}
	sim, err := New(Config{
		Adj:     adj,
		Latency: latency.Constant{Nodes: 4, D: time.Millisecond},
		Forward: zeros(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Broadcast(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrival[1] == stats.InfDuration {
		t.Fatal("neighbor should receive block")
	}
	if res.Arrival[2] != stats.InfDuration || res.Arrival[3] != stats.InfDuration {
		t.Fatal("disconnected component should never receive block")
	}
}

func TestNewValidation(t *testing.T) {
	good := lineConfig(3, 0)
	if _, err := New(good); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(Config) Config
	}{
		{"empty adjacency", func(c Config) Config { c.Adj = nil; return c }},
		{"nil latency", func(c Config) Config { c.Latency = nil; return c }},
		{"latency too small", func(c Config) Config { c.Latency = latency.Constant{Nodes: 1, D: time.Millisecond}; return c }},
		{"forward wrong len", func(c Config) Config { c.Forward = zeros(1); return c }},
		{"negative forward", func(c Config) Config {
			f := zeros(3)
			f[1] = -time.Millisecond
			c.Forward = f
			return c
		}},
		{"send interval wrong len", func(c Config) Config { c.SendInterval = zeros(2); return c }},
		{"negative send interval", func(c Config) Config {
			si := zeros(3)
			si[0] = -time.Second
			c.SendInterval = si
			return c
		}},
		{"self loop", func(c Config) Config {
			c.Adj = [][]int{{0, 1}, {0}, {}}
			return c
		}},
		{"asymmetric", func(c Config) Config {
			c.Adj = [][]int{{1}, {}, {}}
			return c
		}},
		{"unsorted", func(c Config) Config {
			c.Adj = [][]int{{2, 1}, {0}, {0}}
			return c
		}},
		{"duplicate neighbor", func(c Config) Config {
			c.Adj = [][]int{{1, 1}, {0, 0}, {}}
			return c
		}},
		{"out of range", func(c Config) Config {
			c.Adj = [][]int{{5}, {}, {}}
			return c
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.mutate(good)); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestBroadcastSourceRange(t *testing.T) {
	sim, err := New(lineConfig(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Broadcast(-1); err == nil {
		t.Fatal("expected error for negative source")
	}
	if _, err := sim.Broadcast(3); err == nil {
		t.Fatal("expected error for source out of range")
	}
	if _, err := sim.ArrivalAnalytic(9); err == nil {
		t.Fatal("expected error for analytic source out of range")
	}
}

func TestDelayToFraction(t *testing.T) {
	arrival := []time.Duration{0, 10, 20, 30, 40}
	power := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	got, err := DelayToFraction(arrival, power, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 40 {
		t.Fatalf("90%% delay = %v, want 40", got)
	}
	got, err = DelayToFraction(arrival, power, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Fatalf("50%% delay = %v, want 20", got)
	}
	got, err = DelayToFraction(arrival, power, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 40 {
		t.Fatalf("100%% delay = %v, want 40", got)
	}
}

func TestDelayToFractionWeighted(t *testing.T) {
	// One node owns 90% of the power and receives at t=5.
	arrival := []time.Duration{0, 5, 100}
	power := []float64{0.05, 0.9, 0.05}
	got, err := DelayToFraction(arrival, power, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("90%% delay = %v, want 5", got)
	}
}

func TestDelayToFractionUnreachable(t *testing.T) {
	arrival := []time.Duration{0, stats.InfDuration, stats.InfDuration}
	power := []float64{0.3, 0.3, 0.4}
	got, err := DelayToFraction(arrival, power, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != stats.InfDuration {
		t.Fatalf("unreachable mass should give InfDuration, got %v", got)
	}
	// 30% is reachable though.
	got, err = DelayToFraction(arrival, power, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("25%% delay = %v, want 0", got)
	}
}

func TestDelayToFractionErrors(t *testing.T) {
	if _, err := DelayToFraction([]time.Duration{0}, []float64{1, 2}, 0.9); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := DelayToFraction([]time.Duration{0}, []float64{1}, 0); err == nil {
		t.Fatal("expected fraction error")
	}
	if _, err := DelayToFraction([]time.Duration{0}, []float64{1}, 1.5); err == nil {
		t.Fatal("expected fraction error")
	}
	if _, err := DelayToFraction([]time.Duration{0}, []float64{-1}, 0.5); err == nil {
		t.Fatal("expected negative power error")
	}
	if _, err := DelayToFraction([]time.Duration{0}, []float64{0}, 0.5); err == nil {
		t.Fatal("expected zero power error")
	}
}

func TestIdealArrival(t *testing.T) {
	model := latency.Constant{Nodes: 5, D: 30 * time.Millisecond}
	arr := IdealArrival(model, 2)
	for v, a := range arr {
		if v == 2 {
			if a != 0 {
				t.Fatalf("source arrival %v, want 0", a)
			}
			continue
		}
		if a != 30*time.Millisecond {
			t.Fatalf("arrival[%d] = %v, want 30ms", v, a)
		}
	}
}

// TestMonotonicity: adding an edge can only improve arrival times.
func TestAddingEdgeImprovesArrival(t *testing.T) {
	base := lineConfig(6, 2*time.Millisecond)
	simA, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := simA.Broadcast(0)
	if err != nil {
		t.Fatal(err)
	}
	arrA := append([]time.Duration(nil), resA.Arrival...)

	// Pin shortcut 0-5 into a table of the same line.
	tbl, err := topology.NewTable(len(base.Adj), 2)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u+1 < len(base.Adj); u++ {
		if err := tbl.Connect(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Pin(0, 5); err != nil {
		t.Fatal(err)
	}
	shortcut := tbl.Undirected()
	simB, err := New(Config{Adj: shortcut, Latency: base.Latency, Forward: base.Forward})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := simB.Broadcast(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range arrA {
		if resB.Arrival[v] > arrA[v] {
			t.Fatalf("node %d got slower after adding an edge: %v > %v", v, resB.Arrival[v], arrA[v])
		}
	}
	if resB.Arrival[5] >= arrA[5] {
		t.Fatal("shortcut should strictly improve the far end")
	}
}
