package netsim

import (
	"slices"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/topology"
)

// perigeeRewire applies one Perigee-shaped round to tbl: every node drops
// two of its outgoing connections and dials two peers it is not connected
// to (§4: d_v = 6 kept, e_v = 2 explored).
func perigeeRewire(t testing.TB, tbl *topology.Table, r *rng.RNG) {
	t.Helper()
	n := tbl.N()
	for v := 0; v < n; v++ {
		outs := tbl.OutNeighbors(v)
		r.Shuffle(len(outs), func(i, j int) { outs[i], outs[j] = outs[j], outs[i] })
		for _, u := range outs[:2] {
			if err := tbl.Disconnect(v, u); err != nil {
				t.Fatal(err)
			}
		}
		for dialled := 0; dialled < 2; {
			u := r.IntN(n)
			if u == v || tbl.HasOut(v, u) || tbl.HasOut(u, v) || tbl.InFree(u) == 0 {
				continue
			}
			if err := tbl.Connect(v, u); err != nil {
				t.Fatal(err)
			}
			dialled++
		}
	}
}

// carryFixture is a geographic network whose model counts Delay calls.
// Geographic is the model that matters here: it adds the two endpoints'
// access delays in argument order, so δ(u, v) and δ(v, u) may differ in
// the last bit and a carry that mirrored one into the other would show.
type carryFixture struct {
	model *countingModel
	tbl   *topology.Table
	cfg   Config
}

func newCarryFixture(t testing.TB, n int, seed uint64) *carryFixture {
	t.Helper()
	root := rng.New(seed)
	u, err := geo.SampleUniverse(n, root.Derive("universe"))
	if err != nil {
		t.Fatal(err)
	}
	geoModel, err := latency.NewGeographic(u, root.Derive("lat"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := topology.Random(n, 8, 20, root.Derive("topo"))
	if err != nil {
		t.Fatal(err)
	}
	model := &countingModel{Model: geoModel}
	fwd := make([]time.Duration, n)
	for i := range fwd {
		fwd[i] = time.Duration(20+i%60) * time.Millisecond
	}
	return &carryFixture{model: model, tbl: tbl,
		cfg: Config{Adj: tbl.Undirected(), Latency: model, Forward: fwd, LatencyMode: latency.Precomputed}}
}

// directedEdges lists adj's directed edges as a set.
func directedEdges(adj [][]int) map[[2]int]bool {
	set := make(map[[2]int]bool)
	for v, row := range adj {
		for _, w := range row {
			set[[2]int{v, w}] = true
		}
	}
	return set
}

// sameAsFresh fails unless sim, reconfigured onto adj, is indistinguishable
// from a simulator newly built on adj: the same delay on every directed
// edge, and the same Arrival and EdgeArrival rows from every probed source.
func sameAsFresh(t *testing.T, what string, sim *Simulator, bc *Broadcaster, cfg Config, adj [][]int) {
	t.Helper()
	cfg.Adj = adj
	fresh, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !slices.Equal(sim.edgeDelay, fresh.edgeDelay) {
		t.Fatalf("%s: carried edge delays differ from a fresh build", what)
	}
	n := len(adj)
	for _, src := range []int{0, n / 3, n - 1} {
		want, err := fresh.Broadcast(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bc.Broadcast(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.EdgeArrival) != len(want.EdgeArrival) {
			t.Fatalf("%s: %d edge rows, fresh %d", what, len(got.EdgeArrival), len(want.EdgeArrival))
		}
		for v := range want.EdgeArrival {
			if len(got.EdgeArrival[v]) != len(want.EdgeArrival[v]) {
				t.Fatalf("%s: node %d has %d edge slots, fresh %d", what, v, len(got.EdgeArrival[v]), len(want.EdgeArrival[v]))
			}
		}
		sameResult(t, snapshot(want), snapshot(got))
	}
}

// TestReconfigureCarryIsExact drives one simulator through a sequence of
// topologies — Perigee-shaped rewires, the same with relay edges pinned
// in, a node losing every edge, degree growth and shrink, an unchanged
// adjacency — and after each Reconfigure holds it, delay for delay and
// timestamp for timestamp, to a fresh simulator on the same adjacency.
func TestReconfigureCarryIsExact(t *testing.T) {
	const n = 150
	for seed := uint64(1); seed <= 3; seed++ {
		fx := newCarryFixture(t, n, seed)
		sim, err := New(fx.cfg)
		if err != nil {
			t.Fatal(err)
		}
		bc := sim.NewBroadcaster()
		r := rng.New(seed).Derive("rewire")
		step := func(what string, adj [][]int) {
			t.Helper()
			if err := sim.Reconfigure(adj); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, what, err)
			}
			sameAsFresh(t, what, sim, bc, fx.cfg, adj)
		}

		for k := 0; k < 5; k++ {
			perigeeRewire(t, fx.tbl, r)
			step("perigee rewire", fx.tbl.Undirected())
		}
		step("unchanged adjacency", fx.tbl.Undirected())

		members := r.Perm(n)[:12]
		pinned, err := topology.RelayTree(members, 2)
		if err != nil {
			t.Fatal(err)
		}
		// withPins is fx.tbl's graph with the relay tree pinned into a
		// Clone, so the pins can be taken away again.
		withPins := func() [][]int {
			c := fx.tbl.Clone()
			for _, e := range pinned {
				if err := c.Pin(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			return c.Undirected()
		}
		step("pinned edges added", withPins())
		perigeeRewire(t, fx.tbl, r)
		step("rewire under pinned edges", withPins())
		step("pinned edges removed", fx.tbl.Undirected())

		// Node n/2 loses every edge, then gets them back.
		isolated := fx.tbl.Undirected()
		lost := n / 2
		for _, w := range isolated[lost] {
			i, _ := slices.BinarySearch(isolated[w], lost)
			isolated[w] = slices.Delete(isolated[w], i, i+1)
		}
		isolated[lost] = nil
		step("node loses all edges", isolated)
		step("node regains its edges", fx.tbl.Undirected())

		for _, deg := range []int{12, 3, 8} {
			other, err := topology.Random(n, deg, 30, r.Derive("degree"))
			if err != nil {
				t.Fatal(err)
			}
			step("degree change", other.Undirected())
		}
	}
}

// TestReconfigureEvaluatesOnlyNewEdges pins the cost contract of the carry:
// Reconfigure calls Model.Delay exactly once per directed edge absent from
// the previous topology, and never for an identical adjacency.
func TestReconfigureEvaluatesOnlyNewEdges(t *testing.T) {
	fx := newCarryFixture(t, 200, 7)
	sim, err := New(fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := directedEdges(fx.cfg.Adj)
	if fx.model.calls != len(prev) {
		t.Fatalf("first build evaluated δ %d times, want once per directed edge (%d)", fx.model.calls, len(prev))
	}

	fx.model.calls = 0
	if err := sim.Reconfigure(fx.tbl.Undirected()); err != nil {
		t.Fatal(err)
	}
	if fx.model.calls != 0 {
		t.Fatalf("identical adjacency evaluated δ %d times, want 0", fx.model.calls)
	}

	r := rng.New(8)
	for round := 0; round < 4; round++ {
		perigeeRewire(t, fx.tbl, r)
		adj := fx.tbl.Undirected()
		next := directedEdges(adj)
		fresh := 0
		for e := range next {
			if !prev[e] {
				fresh++
			}
		}
		if fresh == 0 || fresh == len(next) {
			t.Fatalf("round %d: %d of %d edges are new; the rewire is not Perigee-shaped", round, fresh, len(next))
		}
		fx.model.calls = 0
		if err := sim.Reconfigure(adj); err != nil {
			t.Fatal(err)
		}
		if fx.model.calls != fresh {
			t.Fatalf("round %d: evaluated δ %d times, want %d (edges absent from the previous topology) of %d",
				round, fx.model.calls, fresh, len(next))
		}
		prev = next
	}
}

// TestRejectedReconfigureCarriesNothing: after a Reconfigure that failed —
// an asymmetric adjacency leaves the CSR arrays half written, a resize is
// refused outright — and after ForgetDelays, the next successful
// Reconfigure evaluates every edge, even for the topology the simulator
// last ran on.
func TestRejectedReconfigureCarriesNothing(t *testing.T) {
	fx := newCarryFixture(t, 60, 11)
	sim, err := New(fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	bc := sim.NewBroadcaster()
	adj := fx.cfg.Adj
	edges := len(directedEdges(adj))

	asymmetric := slices.Clone(adj)
	asymmetric[5] = append(slices.Clone(adj[5]), -1)
	for w := 0; ; w++ {
		if _, linked := slices.BinarySearch(adj[5], w); w != 5 && !linked {
			asymmetric[5][len(adj[5])] = w // 5 lists w, w does not list 5
			slices.Sort(asymmetric[5])
			break
		}
	}
	for _, tc := range []struct {
		name    string
		disturb func() error
		wantErr bool
	}{
		{"asymmetric adjacency", func() error { return sim.Reconfigure(asymmetric) }, true},
		{"resize", func() error { return sim.Reconfigure(adj[:len(adj)-1]) }, true},
		{"ForgetDelays", func() error { sim.ForgetDelays(); return nil }, false},
	} {
		if err := tc.disturb(); (err != nil) != tc.wantErr {
			t.Fatalf("%s: error %v, want error %v", tc.name, err, tc.wantErr)
		}
		fx.model.calls = 0
		if err := sim.Reconfigure(adj); err != nil {
			t.Fatalf("after %s: %v", tc.name, err)
		}
		if fx.model.calls != edges {
			t.Fatalf("after %s: evaluated δ %d times, want all %d edges", tc.name, fx.model.calls, edges)
		}
		sameAsFresh(t, "after "+tc.name, sim, bc, fx.cfg, adj)

		// The recovered simulator carries again.
		fx.model.calls = 0
		if err := sim.Reconfigure(adj); err != nil {
			t.Fatal(err)
		}
		if fx.model.calls != 0 {
			t.Fatalf("after recovering from %s: identical adjacency evaluated δ %d times", tc.name, fx.model.calls)
		}
	}
}

// TestStreamingReconfigureKeepsNoEdgeState: streaming is the O(1)-memory
// mode, so a reconfigured streaming simulator holds neither a delay array
// nor a copy of the previous topology.
func TestStreamingReconfigureKeepsNoEdgeState(t *testing.T) {
	fx := newCarryFixture(t, 60, 13)
	fx.cfg.LatencyMode = latency.Streaming
	sim, err := New(fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	perigeeRewire(t, fx.tbl, rng.New(14))
	fx.model.calls = 0
	if err := sim.Reconfigure(fx.tbl.Undirected()); err != nil {
		t.Fatal(err)
	}
	if fx.model.calls != 0 {
		t.Fatalf("streaming Reconfigure evaluated δ %d times", fx.model.calls)
	}
	if len(sim.edgeDelay)+len(sim.prevEdgeDelay)+len(sim.prevEdgeDst)+len(sim.prevRowStart) != 0 {
		t.Fatal("streaming simulator retains per-edge delay or previous-topology state")
	}
}

// TestReconfigureGrowsWithHeadroom drives a simulator and a Broadcaster
// through Reconfigures whose directed-edge total sets a new maximum every
// time (a ring gaining one chord per round, until the total has doubled):
// the edge-sized buffers must be reallocated a logarithmic number of times,
// not once per maximum, in both latency modes.
func TestReconfigureGrowsWithHeadroom(t *testing.T) {
	const n = 400
	for _, mode := range []latency.Mode{latency.Precomputed, latency.Streaming} {
		adj := make([][]int, n)
		for v := range adj {
			adj[v] = []int{(v + n - 1) % n, (v + 1) % n}
			slices.Sort(adj[v])
		}
		sim, err := New(Config{Adj: adj, Latency: latency.Constant{Nodes: n, D: time.Millisecond},
			Forward: uniformForward(n, 50*time.Millisecond), LatencyMode: mode})
		if err != nil {
			t.Fatal(err)
		}
		bc := sim.NewBroadcaster()
		// The distinct capacities each buffer has had.
		caps := map[string]map[int]bool{"edgeDst": {}, "edgeSlot": {}, "edgeDelay": {}, "edgeFlat": {}}
		note := func() {
			caps["edgeDst"][cap(sim.edgeDst)] = true
			caps["edgeSlot"][cap(sim.edgeSlot)] = true
			caps["edgeDelay"][cap(sim.edgeDelay)] = true
			caps["edgeFlat"][cap(bc.edgeFlat)] = true
		}
		note()
		rounds := 0
		for v := 0; v < n/2; v++ { // two chords per v: 2n directed edges grow to 4n
			for _, w := range []int{(v + n/2) % n, (v + n/3) % n} {
				adj[v] = append(adj[v], w)
				adj[w] = append(adj[w], v)
				slices.Sort(adj[v])
				slices.Sort(adj[w])
				if err := sim.Reconfigure(adj); err != nil {
					t.Fatal(err)
				}
				if _, err := bc.Broadcast(v); err != nil {
					t.Fatal(err)
				}
				note()
				rounds++
			}
		}
		if total := int(sim.rowStart[n]); total != 4*n {
			t.Fatalf("mode %v: %d directed edges after %d rounds, want %d", mode, total, rounds, 4*n)
		}
		// Doubling at 1.25× per reallocation takes four steps. In precomputed
		// mode edgeDst and edgeDelay alternate between two arrays, each of
		// which takes its own.
		for name, seen := range caps {
			limit := 1 + 4
			if mode == latency.Precomputed && (name == "edgeDst" || name == "edgeDelay") {
				limit = 2 * (1 + 4)
			}
			if len(seen) > limit {
				t.Errorf("mode %v: %s took %d capacities over %d rising rounds, want at most %d", mode, name, len(seen), rounds, limit)
			}
		}
	}
}
