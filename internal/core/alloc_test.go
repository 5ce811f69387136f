//go:build !race

package core

import (
	"runtime"
	"testing"

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
// rebuilt in buffers and slabs the engine keeps. Only Connect's table rows
// still grow now and then past their earlier maxima, a few allocations a
// round that rise with n, so the check allows one allocation per 50 added
// nodes; one per node would be 600.
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
