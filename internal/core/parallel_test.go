package core

import (
	"reflect"
	"testing"
	"time"
)

// engineAtWorkers builds an engine over a fresh but identically-seeded
// network with the given worker count, deciding by m's selector or, when
// sel is non-nil, by sel.
func engineAtWorkers(t *testing.T, m Method, sel Selector, workers int) *Engine {
	t.Helper()
	tn := newTestNetwork(t, 120, 31)
	cfg := tn.config(m, Params{})
	params := DefaultParams(m)
	if m != UCB {
		params.RoundBlocks = 40
	}
	cfg.Params = params
	cfg.Selector = sel
	cfg.Workers = workers
	engine, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// outgoingSnapshot captures every node's outgoing neighbor set.
func outgoingSnapshot(e *Engine) [][]int {
	n := e.N()
	out := make([][]int, n)
	for v := 0; v < n; v++ {
		out[v] = e.Table().OutNeighbors(v)
	}
	return out
}

// TestStepDeterministicAcrossWorkers is the engine-level determinism
// acceptance check: for a fixed seed, round reports, the final topology,
// and the delay metric are identical under Workers=1 and Workers=8. The
// random-rotation arm covers the one built-in selector that draws from the
// view's stream, which each worker reseeds for every node it decides.
func TestStepDeterministicAcrossWorkers(t *testing.T) {
	random, err := NewRandomSelector(DefaultParams(Subset).Explore)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    Method
		sel  Selector
	}{
		{Vanilla.String(), Vanilla, nil},
		{Subset.String(), Subset, nil},
		{UCB.String(), UCB, nil},
		{"random", Subset, random},
	} {
		m := tc.m
		t.Run(tc.name, func(t *testing.T) {
			seq := engineAtWorkers(t, m, tc.sel, 1)
			par := engineAtWorkers(t, m, tc.sel, 8)
			rounds := 5
			if m == UCB {
				rounds = 40
			}
			for r := 0; r < rounds; r++ {
				repSeq, err := seq.Step()
				if err != nil {
					t.Fatal(err)
				}
				repPar, err := par.Step()
				if err != nil {
					t.Fatal(err)
				}
				if repSeq != repPar {
					t.Fatalf("round %d reports diverge: sequential %+v, parallel %+v", r, repSeq, repPar)
				}
			}
			if !reflect.DeepEqual(outgoingSnapshot(seq), outgoingSnapshot(par)) {
				t.Fatal("final outgoing tables diverge across worker counts")
			}
			if !reflect.DeepEqual(seq.Adjacency(), par.Adjacency()) {
				t.Fatal("final adjacency diverges across worker counts")
			}
			dSeq, err := seq.Delays(0.9, nil)
			if err != nil {
				t.Fatal(err)
			}
			dPar, err := par.Delays(0.9, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dSeq, dPar) {
				t.Fatal("delay metrics diverge across worker counts")
			}
		})
	}
}

// TestDelaysAndReceiveDelaysDeterministicAcrossWorkers covers the
// evaluation paths under serialized uploads.
func TestDelaysAndReceiveDelaysDeterministicAcrossWorkers(t *testing.T) {
	build := func(workers int) *Engine {
		tn := newTestNetwork(t, 90, 77)
		cfg := tn.config(Subset, Params{})
		cfg.Workers = workers
		si := make([]time.Duration, 90)
		for i := range si {
			si[i] = time.Duration(i%5) * time.Millisecond
		}
		cfg.SendInterval = si
		engine, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return engine
	}
	seq, par := build(1), build(8)
	dSeq, err := seq.Delays(0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	dPar, err := par.Delays(0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dSeq, dPar) {
		t.Fatal("delay metrics diverge across worker counts")
	}
	rSeq, err := seq.ReceiveDelays(nil)
	if err != nil {
		t.Fatal(err)
	}
	rPar, err := par.ReceiveDelays(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rSeq, rPar) {
		t.Fatal("receive delays diverge across worker counts")
	}
}
