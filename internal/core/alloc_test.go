//go:build !race

package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/topology"
)

// allocEngine builds a Subset engine of n nodes at one worker whose rounds
// carry 20 blocks, and warms it: the first rounds size the simulator, the
// observation rows and the decide phase's scratch. A node takes at most 10
// incoming connections, so exploration meets full candidates often.
func allocEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e := coldEngine(t, n)
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	return e
}

// coldEngine is allocEngine's engine before its first round.
func coldEngine(t *testing.T, n int) *Engine {
	t.Helper()
	tn := newTestNetwork(t, n, 5)
	tbl, err := topology.Random(n, 8, 10, tn.root.Derive("capped"))
	if err != nil {
		t.Fatal(err)
	}
	tn.table = tbl
	params := DefaultParams(Subset)
	params.RoundBlocks = 20
	cfg := tn.config(Subset, params)
	cfg.Workers = 1
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// poolsRound runs one timed round of the given sources.
func poolsRound(e *Engine, sources []int) error {
	tr, err := BeginTimedRound(e, len(sources))
	if err != nil {
		return err
	}
	if err := tr.BroadcastAll(sources, nil); err != nil {
		return err
	}
	_, err = tr.Finish()
	return err
}

// TestRoundAllocationsIndependentOfN checks that a warm round pays nothing
// per node: a Step, and a timed round whose 20 blocks come from four miners
// (so every node's observations carry the window's distinct rows and Subset
// scores them by the weighted kernels), allocate about as much at 800 nodes
// as at 200. Each node's decision is written into engine scratch, its
// selector stream is its worker's, reseeded, and a dial to a full candidate
// builds no error; the simulator's CSR and every node's round rows are
// rebuilt in buffers and slabs the engine keeps, and a rewire writes into
// the connection table's fixed windows. The check allows one allocation per
// 50 added nodes, for pooled scratch that reaches a new high-water mark;
// one per node would be 600.
func TestRoundAllocationsIndependentOfN(t *testing.T) {
	sources := make([]int, 20)
	for b := range sources {
		sources[b] = 10 * (b % 4)
	}
	rounds := map[string]func(*Engine) error{
		"Step":  func(e *Engine) error { _, err := e.Step(); return err },
		"pools": func(e *Engine) error { return poolsRound(e, sources) },
	}
	for name, round := range rounds {
		t.Run(name, func(t *testing.T) {
			var allocs [2]float64
			for i, n := range []int{200, 800} {
				e := allocEngine(t, n)
				allocs[i] = testing.AllocsPerRun(10, func() {
					if err := round(e); err != nil {
						t.Fatal(err)
					}
				})
			}
			if allocs[1]-allocs[0] >= (800-200)/50 {
				t.Fatalf("a warm round allocates %v objects at n = 200 and %v at n = 800, want fewer than %d more", allocs[0], allocs[1], (800-200)/50)
			}
		})
	}
}

// TestColdPrepareAllocationsIndependentOfN checks that the first round of a
// fresh engine prepares in a fixed number of allocations, whatever n is:
// BeginTimedRound builds the simulator straight from the table's rows and
// carves every node's outgoing snapshot and observation matrix from engine
// slabs. testing.AllocsPerRun would hide this cost behind its warm-up call,
// so the one cold call is counted with runtime.ReadMemStats.
func TestColdPrepareAllocationsIndependentOfN(t *testing.T) {
	const limit = 64
	for _, n := range []int{200, 800, 3200} {
		e := coldEngine(t, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := BeginTimedRound(e, e.params.RoundBlocks)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.Mallocs - before.Mallocs; got >= limit {
			t.Errorf("n = %d: the first BeginTimedRound allocates %d objects, want fewer than %d", n, got, limit)
		} else {
			t.Logf("n = %d: the first BeginTimedRound allocates %d objects", n, got)
		}
	}
}

// TestWarmRoundAllocationsIndependentOfN counts the objects rounds 2–4 of
// a fresh engine allocate at n = 500, 2,000 and 8,000. The first round sizes
// the engine's buffers; after it a rewire writes into the connection
// table's fixed windows and the rest of a round into engine scratch, so
// three rounds allocate the same few objects at every n: a round's
// TimedRound, and pooled scoring scratch that now and then reaches a new
// high-water mark (9 to 17 on two cores; 9 to 24 while Subset's scratch
// grew buffer by buffer). When Connect grew table rows the count rose with
// n: 105, 430 and 1,497.
func TestWarmRoundAllocationsIndependentOfN(t *testing.T) {
	const limit = 40
	for _, n := range []int{500, 2000, 8000} {
		e := coldEngine(t, n)
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		// A collection would empty the scoring pools, whose refills are
		// noise here.
		gc := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for round := 2; round <= 4; round++ {
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		if got := after.Mallocs - before.Mallocs; got >= limit {
			t.Errorf("n = %d: rounds 2–4 allocate %d objects, want fewer than %d", n, got, limit)
		} else {
			t.Logf("n = %d: rounds 2–4 allocate %d objects", n, got)
		}
	}
}

// TestVanillaDecisionDoesNotAllocate checks that a Vanilla decision whose
// view carries a decision buffer with room for every neighbour allocates
// nothing once the scoring pools are warm: the scores are pooled scratch and
// the decision is written into the buffer.
func TestVanillaDecisionDoesNotAllocate(t *testing.T) {
	const k, blocks = 8, 20
	neighbors := make([]int, k)
	offsets := make([][]time.Duration, blocks)
	for i := range neighbors {
		neighbors[i] = 100 + i
	}
	for b := range offsets {
		offsets[b] = make([]time.Duration, k)
		for i := range offsets[b] {
			offsets[b][i] = time.Duration((b*7+i*13)%29) * time.Millisecond
		}
	}
	view := testView(neighbors, offsets, k)
	view.Buf = make([]int, 0, k)
	sel, err := NewVanillaSelector(2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sel.SelectNeighbors(view); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a Vanilla decision allocates %v objects, want 0", allocs)
	}
}

// TestSubsetScratchGrowsOncePerCall checks that Subset's pooled scratch is
// sized to a call's bound at the start of the call: after one SubsetSelect
// on the largest matrix, smaller ones allocate nothing, even one whose
// greedy steps list more rows above θ than the largest call ever did. The
// largest matrix is all zeros, so its steps list none; before the order
// list was sized to the call's rows, the smaller matrices grew it.
func TestSubsetScratchGrowsOncePerCall(t *testing.T) {
	matrix := func(k, blocks int, offset func(b, i int) time.Duration) Observations {
		neighbors := make([]int, k)
		for i := range neighbors {
			neighbors[i] = 100 + i
		}
		obs := NewObservations(neighbors, blocks)
		for b, row := range obs.Offsets {
			for i := range row {
				row[i] = offset(b, i)
			}
		}
		return obs
	}
	largest := matrix(12, 60, func(int, int) time.Duration { return 0 })
	smaller := []Observations{
		matrix(8, 40, func(b, i int) time.Duration { return time.Duration((b*7+i*13)%29+1) * time.Millisecond }),
		matrix(12, 60, func(b, i int) time.Duration { return time.Duration((b*11+i*5)%37+1) * time.Millisecond }),
		matrix(4, 20, func(b, i int) time.Duration { return time.Duration((b*3+i*17)%19+1) * time.Millisecond }),
	}
	const retain, pct = 3, 0.9
	buf := make([]int, 0, retain)
	// One P, so every call meets the scratch the call before it put back;
	// GC off, since a collection empties the pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	subsetSelectInto(buf, largest, retain, pct)
	for i, obs := range smaller {
		// testing.AllocsPerRun would hide the growth behind its warm-up call.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		subsetSelectInto(buf, obs, retain, pct)
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got != 0 {
			t.Errorf("matrix %d (%d blocks × %d neighbors) after the largest allocates %d objects, want 0", i, len(obs.Offsets), len(obs.Neighbors), got)
		}
	}
}
