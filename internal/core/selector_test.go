package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
)

func TestBuiltinSelectorValidation(t *testing.T) {
	if _, err := NewVanillaSelector(-1, 0.9); err == nil {
		t.Fatal("negative explore accepted")
	}
	if _, err := NewSubsetSelector(2, 0); err == nil {
		t.Fatal("zero percentile accepted")
	}
	if _, err := NewSubsetSelector(2, 1.5); err == nil {
		t.Fatal("percentile above 1 accepted")
	}
	if _, err := NewUCBSelector(0.9, -time.Millisecond); err == nil {
		t.Fatal("negative UCB constant accepted")
	}
	if _, err := NewRandomSelector(-2); err == nil {
		t.Fatal("negative random explore accepted")
	}
	if _, err := SelectorFromMethod(Method(9), DefaultParams(Subset)); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// testView builds a view over k neighbors and the given offset matrix.
func testView(neighbors []int, offsets [][]time.Duration, outDegree int) NeighborView {
	obs := NewObservations(neighbors, len(offsets))
	for b, row := range offsets {
		copy(obs.Offsets[b], row)
	}
	return NeighborView{
		Node:         0,
		OutDegree:    outDegree,
		Candidates:   10,
		Observations: obs,
		Rand:         rng.New(7).Derive("test-view"),
	}
}

func TestDecideValidatesDecisions(t *testing.T) {
	view := testView([]int{10, 11, 12}, [][]time.Duration{{1, 2, 3}}, 3)
	cases := []struct {
		name string
		d    Decision
	}{
		{"negative dial", Decision{Keep: []int{0, 1, 2}, Dial: -1}},
		{"index out of range", Decision{Keep: []int{0, 1, 3}}},
		{"duplicate index", Decision{Keep: []int{0, 1}, Drop: []int{1}}},
		{"incomplete partition", Decision{Keep: []int{0}, Drop: []int{1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sel := SelectorFunc(func(NeighborView) (Decision, error) { return tc.d, nil })
			if _, err := Decide(sel, view); err == nil {
				t.Fatalf("invalid decision %+v accepted", tc.d)
			}
		})
	}
	boom := SelectorFunc(func(NeighborView) (Decision, error) {
		return Decision{}, fmt.Errorf("boom")
	})
	if _, err := Decide(boom, view); err == nil {
		t.Fatal("selector error not propagated")
	}
	ok := SelectorFunc(func(NeighborView) (Decision, error) {
		return Decision{Keep: []int{2, 0}, Drop: []int{1}, Dial: 1}, nil
	})
	if _, err := Decide(ok, view); err != nil {
		t.Fatal(err)
	}
}

// TestBuiltinSelectorDecisions pins the built-in policies to hand-checked
// decisions on a small observation matrix.
func TestBuiltinSelectorDecisions(t *testing.T) {
	ms := time.Millisecond
	inf := stats.InfDuration
	// Neighbor 0: always fast. Neighbor 1: fast where 0 is slow
	// (complementary). Neighbor 2: mediocre everywhere. Neighbor 3: never
	// delivers.
	offsets := [][]time.Duration{
		{0, 40 * ms, 20 * ms, inf},
		{0, 42 * ms, 21 * ms, inf},
		{50 * ms, 0, 22 * ms, inf},
		{52 * ms, 0, 23 * ms, inf},
	}
	neighbors := []int{100, 101, 102, 103}

	vanilla, err := NewVanillaSelector(2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decide(vanilla, testView(neighbors, offsets, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Independent 0.9-percentiles rank 2 (≈22.7ms) best, then 1 (≈41.4ms),
	// then 0 (≈51.4ms), then the never-delivering 3; drops stay in ranked
	// order.
	if !reflect.DeepEqual(d.Keep, []int{2, 1}) {
		t.Fatalf("vanilla keep = %v, want [2 1]", d.Keep)
	}
	if !reflect.DeepEqual(d.Drop, []int{0, 3}) {
		t.Fatalf("vanilla drop = %v, want [0 3]", d.Drop)
	}
	if d.Dial != 2 {
		t.Fatalf("vanilla dial = %d, want 2", d.Dial)
	}

	subset, err := NewSubsetSelector(2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	d, err = Decide(subset, testView(neighbors, offsets, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Joint scoring values complementarity: 2 wins the first greedy pick,
	// then 1 complements it (fast exactly where 2's picks are slowest).
	if !reflect.DeepEqual(d.Keep, []int{1, 2}) {
		t.Fatalf("subset keep = %v, want [1 2]", d.Keep)
	}
	if !reflect.DeepEqual(d.Drop, []int{0, 3}) {
		t.Fatalf("subset drop = %v, want [0 3]", d.Drop)
	}

	random, err := NewRandomSelector(2)
	if err != nil {
		t.Fatal(err)
	}
	d, err = Decide(random, testView(neighbors, offsets, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Keep) != 2 || len(d.Drop) != 2 || d.Dial != 2 {
		t.Fatalf("random decision %+v, want 2 keep / 2 drop / 2 dial", d)
	}
	// Same view, same stream: identical decision.
	d2, err := Decide(random, testView(neighbors, offsets, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, d2) {
		t.Fatalf("random selector not deterministic: %+v vs %+v", d, d2)
	}
}

func TestUCBSelectorStateLifecycle(t *testing.T) {
	ms := time.Millisecond
	sel, err := NewUCBSelector(0.9, 10*ms)
	if err != nil {
		t.Fatal(err)
	}
	// Neighbor 201 is consistently far behind; after enough accumulated
	// rounds the confidence intervals separate and it is evicted.
	offsets := [][]time.Duration{{0, 500 * ms}}
	var evicted bool
	for round := 0; round < 40 && !evicted; round++ {
		d, err := Decide(sel, testView([]int{200, 201}, offsets, 2))
		if err != nil {
			t.Fatal(err)
		}
		evicted = len(d.Drop) == 1
		if evicted && d.Drop[0] != 1 {
			t.Fatalf("evicted index %d, want 1 (the slow neighbor)", d.Drop[0])
		}
	}
	if !evicted {
		t.Fatal("UCB never separated a 500ms-slower neighbor")
	}
	ucb := sel.(*ucbSelector)
	ucb.mu.Lock()
	samples := len(ucb.hist[0][200])
	ucb.mu.Unlock()
	if samples == 0 {
		t.Fatal("kept neighbor accumulated no history")
	}
	sel.(NodeStateResetter).ResetNodeState(0)
	ucb.mu.Lock()
	left := len(ucb.hist)
	ucb.mu.Unlock()
	if left != 0 {
		t.Fatal("ResetNodeState left history behind")
	}
}

// recordingSelector wraps a selector, capturing every view and decision.
type recordingSelector struct {
	inner     Selector
	views     []NeighborView
	decisions []Decision
	mu        chan struct{} // 1-buffered semaphore; keeps the test free of sync imports
}

func newRecordingSelector(inner Selector) *recordingSelector {
	return &recordingSelector{inner: inner, mu: make(chan struct{}, 1)}
}

func (r *recordingSelector) SelectNeighbors(view NeighborView) (Decision, error) {
	d, err := r.inner.SelectNeighbors(view)
	if err != nil {
		return d, err
	}
	r.mu <- struct{}{}
	r.views = append(r.views, view)
	r.decisions = append(r.decisions, d)
	<-r.mu
	return d, nil
}

// TestEngineDrivesSelector proves the engine is a faithful driver: the
// views it hands the selector snapshot each node's real outgoing set, and
// the post-round table reflects exactly the keep/drop/dial decisions the
// selector returned.
func TestEngineDrivesSelector(t *testing.T) {
	tn := newTestNetwork(t, 40, 31)
	params := DefaultParams(Subset)
	params.RoundBlocks = 5
	inner, err := NewSubsetSelector(params.Explore, params.Percentile)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecordingSelector(inner)
	cfg := tn.config(Subset, params)
	cfg.Selector = rec
	var event RoundEvent
	cfg.Observer = ObserverFunc(func(ev RoundEvent) { event = ev })
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]int, e.N())
	for v := 0; v < e.N(); v++ {
		before[v] = e.Table().OutNeighbors(v)
	}
	report, err := e.Step()
	if err != nil {
		t.Fatal(err)
	}
	if report.Unfilled != 0 {
		t.Fatalf("round left %d slots unfilled; assertions below assume full dials", report.Unfilled)
	}
	if len(rec.views) != e.N() {
		t.Fatalf("selector consulted for %d nodes, want %d", len(rec.views), e.N())
	}
	droppedEdges := make(map[int][]int) // node -> dropped neighbor IDs, in event order
	for _, edge := range event.Dropped {
		droppedEdges[edge[0]] = append(droppedEdges[edge[0]], edge[1])
	}
	addedCount := make(map[int]int)
	for _, edge := range event.Added {
		addedCount[edge[0]]++
	}
	seen := make(map[int]bool, e.N())
	for i, view := range rec.views {
		v := view.Node
		if seen[v] {
			t.Fatalf("node %d decided twice", v)
		}
		seen[v] = true
		if view.OutDegree != params.OutDegree || view.Candidates != e.N()-1 {
			t.Fatalf("view context %+v wrong for node %d", view, v)
		}
		if !reflect.DeepEqual(view.Observations.Neighbors, before[v]) {
			t.Fatalf("node %d scored %v, expected its round-start neighbors %v",
				v, view.Observations.Neighbors, before[v])
		}
		d := rec.decisions[i]
		// The event stream must report exactly the selector's drops, in
		// the selector's order.
		wantDrops := make([]int, len(d.Drop))
		for j, di := range d.Drop {
			wantDrops[j] = view.Observations.Neighbors[di]
		}
		if len(wantDrops) == 0 {
			wantDrops = nil
		}
		if !reflect.DeepEqual(droppedEdges[v], wantDrops) {
			t.Fatalf("node %d event drops %v, selector decided %v", v, droppedEdges[v], wantDrops)
		}
		// Exploration spends exactly the dial budget (no unfilled slots).
		if addedCount[v] != d.Dial {
			t.Fatalf("node %d added %d connections, dial budget was %d", v, addedCount[v], d.Dial)
		}
		// Kept neighbors survive the round; the final out-degree is
		// keep + dial.
		for _, ki := range d.Keep {
			if u := view.Observations.Neighbors[ki]; !e.Table().HasOut(v, u) {
				t.Fatalf("kept neighbor %d of node %d was disconnected", u, v)
			}
		}
		if got, want := e.Table().OutDegree(v), len(d.Keep)+d.Dial; got != want {
			t.Fatalf("node %d out-degree %d after round, want keep+dial = %d", v, got, want)
		}
	}
}

// TestExplicitSelectorMatchesMethod proves the default Method path and an
// explicitly injected built-in selector are the same engine: identical
// adjacency and reports across rounds.
func TestExplicitSelectorMatchesMethod(t *testing.T) {
	for _, m := range []Method{Vanilla, Subset, UCB} {
		t.Run(m.String(), func(t *testing.T) {
			params := DefaultParams(m)
			params.RoundBlocks = 5
			if m == UCB {
				params.RoundBlocks = 1
			}
			build := func(explicit bool) *Engine {
				tn := newTestNetwork(t, 40, 77)
				cfg := tn.config(m, params)
				if explicit {
					sel, err := SelectorFromMethod(m, params)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Selector = sel
				}
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			byMethod, bySelector := build(false), build(true)
			for r := 0; r < 3; r++ {
				ra, err := byMethod.Step()
				if err != nil {
					t.Fatal(err)
				}
				rb, err := bySelector.Step()
				if err != nil {
					t.Fatal(err)
				}
				if ra != rb {
					t.Fatalf("round %d reports diverge: %+v vs %+v", r, ra, rb)
				}
			}
			if !reflect.DeepEqual(byMethod.Adjacency(), bySelector.Adjacency()) {
				t.Fatal("adjacency diverges between Method default and explicit selector")
			}
		})
	}
}

// TestRandomSelectorEngineDeterminism: the baseline selector draws only
// from the per-(round, node) view streams, so equal seeds reproduce runs.
func TestRandomSelectorEngineDeterminism(t *testing.T) {
	build := func() *Engine {
		tn := newTestNetwork(t, 40, 13)
		params := DefaultParams(Subset)
		params.RoundBlocks = 5
		sel, err := NewRandomSelector(params.Explore)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tn.config(Subset, params)
		cfg.Selector = sel
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := build(), build()
	for r := 0; r < 3; r++ {
		ra, err := a.Step()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Step()
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Fatalf("round %d reports diverge across identical runs", r)
		}
	}
	if !reflect.DeepEqual(a.Adjacency(), b.Adjacency()) {
		t.Fatal("random-selector runs diverge for equal seeds")
	}
}
