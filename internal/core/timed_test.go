package core

import (
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/stats"
)

// A timed round fed the exact sources Step would have sampled must produce
// the same report and the same resulting topology — the equivalence the
// continuous-time workload engine's selector fidelity rests on.
func TestTimedRoundMatchesStep(t *testing.T) {
	for _, m := range []Method{Subset, Vanilla, UCB} {
		params := DefaultParams(m)
		params.RoundBlocks = 20

		tnA := newTestNetwork(t, 80, 42)
		engA, err := NewEngine(tnA.config(m, params))
		if err != nil {
			t.Fatal(err)
		}
		tnB := newTestNetwork(t, 80, 42)
		engB, err := NewEngine(tnB.config(m, params))
		if err != nil {
			t.Fatal(err)
		}

		for round := 0; round < 3; round++ {
			repA, err := engA.Step()
			if err != nil {
				t.Fatal(err)
			}
			// Draw the sources exactly as Step does, on the same stream.
			sources := make([]int, params.RoundBlocks)
			for b := range sources {
				sources[b] = engB.sampler.Sample(engB.rand)
			}
			tr, err := BeginTimedRound(engB, params.RoundBlocks)
			if err != nil {
				t.Fatal(err)
			}
			arrivals := make([][]time.Duration, params.RoundBlocks)
			if err := tr.BroadcastAll(sources, arrivals); err != nil {
				t.Fatal(err)
			}
			repB, err := tr.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if repA != repB {
				t.Fatalf("method %v round %d: Step %+v != timed %+v", m, round, repA, repB)
			}
			for b, src := range sources {
				if arrivals[b][src] != 0 {
					t.Fatalf("block %d: source arrival %v, want 0", b, arrivals[b][src])
				}
			}
		}
		adjA, adjB := engA.Adjacency(), engB.Adjacency()
		for v := range adjA {
			if len(adjA[v]) != len(adjB[v]) {
				t.Fatalf("method %v: node %d degree diverged", m, v)
			}
			for i := range adjA[v] {
				if adjA[v][i] != adjB[v][i] {
					t.Fatalf("method %v: node %d adjacency diverged", m, v)
				}
			}
		}
	}
}

// The observation window applies to timed rounds exactly as to Step: early
// blocks propagate (arrivals are filled) but stay invisible to the selector.
func TestTimedRoundObservationWindow(t *testing.T) {
	params := DefaultParams(Subset)
	params.RoundBlocks = 16

	tnA := newTestNetwork(t, 60, 7)
	cfgA := tnA.config(Subset, params)
	cfgA.ObservationWindow = 4
	engA, err := NewEngine(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	tnB := newTestNetwork(t, 60, 7)
	cfgB := tnB.config(Subset, params)
	cfgB.ObservationWindow = 4
	engB, err := NewEngine(cfgB)
	if err != nil {
		t.Fatal(err)
	}

	repA, err := engA.Step()
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]int, params.RoundBlocks)
	for b := range sources {
		sources[b] = engB.sampler.Sample(engB.rand)
	}
	tr, err := BeginTimedRound(engB, params.RoundBlocks)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([][]time.Duration, params.RoundBlocks)
	if err := tr.BroadcastAll(sources, arrivals); err != nil {
		t.Fatal(err)
	}
	repB, err := tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if repA != repB {
		t.Fatalf("windowed: Step %+v != timed %+v", repA, repB)
	}
	// Unlike Step (which skips pre-window broadcasts entirely), the timed
	// driver still propagates every block for the workload's benefit.
	for b := range arrivals {
		if len(arrivals[b]) != engB.N() {
			t.Fatalf("block %d arrivals not filled", b)
		}
		reached := 0
		for _, at := range arrivals[b] {
			if at < stats.InfDuration {
				reached++
			}
		}
		if reached < engB.N()/2 {
			t.Fatalf("block %d reached only %d nodes", b, reached)
		}
	}
}

// A round's harvest writes every observation cell, so the engine does not
// pre-fill the matrices; a round finished without a successful BroadcastAll
// must still hand the selector nothing but censored offsets, not what the
// previous round left in the buffers.
func TestTimedRoundFinishWithoutBroadcastCensors(t *testing.T) {
	const n = 60
	params := DefaultParams(Vanilla)
	params.RoundBlocks = 8
	vanilla, err := SelectorFromMethod(Vanilla, params)
	if err != nil {
		t.Fatal(err)
	}
	finite := make([]int, n) // per node, so concurrent decisions never share a cell
	tn := newTestNetwork(t, n, 5)
	cfg := tn.config(Vanilla, params)
	cfg.Selector = SelectorFunc(func(view NeighborView) (Decision, error) {
		for _, row := range view.Obs.Offsets {
			for _, d := range row {
				if d != stats.InfDuration {
					finite[view.Node]++
				}
			}
		}
		return vanilla.SelectNeighbors(view)
	})
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := func() int {
		sum := 0
		for v := range finite {
			sum += finite[v]
			finite[v] = 0
		}
		return sum
	}
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if total() == 0 {
		t.Fatal("a broadcast round handed the selectors no finite offset")
	}
	for _, broadcast := range []bool{false, true} {
		tr, err := BeginTimedRound(eng, params.RoundBlocks)
		if err != nil {
			t.Fatal(err)
		}
		// A BroadcastAll that fails its argument checks harvests nothing.
		if broadcast && tr.BroadcastAll([]int{1}, nil) == nil {
			t.Fatal("accepted wrong source count")
		}
		if _, err := tr.Finish(); err != nil {
			t.Fatal(err)
		}
		if got := total(); got != 0 {
			t.Fatalf("failed broadcast %v: selectors saw %d finite offsets, want all censored", broadcast, got)
		}
	}
}

func TestTimedRoundErrors(t *testing.T) {
	tn := newTestNetwork(t, 40, 3)
	eng, err := NewEngine(tn.config(Subset, DefaultParams(Subset)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BeginTimedRound(eng, 0); err == nil {
		t.Fatal("accepted zero blocks")
	}
	tr, err := BeginTimedRound(eng, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BroadcastAll([]int{1}, nil); err == nil {
		t.Fatal("accepted wrong source count")
	}
	if err := tr.BroadcastAll([]int{1, 99}, nil); err == nil {
		t.Fatal("accepted out-of-range source")
	}
	if err := tr.BroadcastAll([]int{1, 2}, make([][]time.Duration, 1)); err == nil {
		t.Fatal("accepted wrong arrival buffer count")
	}
	if err := tr.BroadcastAll([]int{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.BroadcastAll([]int{1, 2}, nil); err == nil {
		t.Fatal("accepted double broadcast")
	}
	if _, err := tr.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Finish(); err == nil {
		t.Fatal("accepted double finish")
	}
	if err := tr.BroadcastAll([]int{1, 2}, nil); err == nil {
		t.Fatal("accepted broadcast after finish")
	}
}
