package core

import (
	"reflect"
	"testing"
)

// scaleEngine builds an engine over a fresh but identically-seeded network
// with the given observation window, shard count, and worker count.
func scaleEngine(t *testing.T, m Method, window, shards, workers int) *Engine {
	t.Helper()
	tn := newTestNetwork(t, 120, 31)
	cfg := tn.config(m, Params{})
	params := DefaultParams(m)
	if m != UCB {
		params.RoundBlocks = 40
	}
	cfg.Params = params
	cfg.ObservationWindow = window
	cfg.Shards = shards
	cfg.Workers = workers
	engine, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// sameRun steps both engines in lockstep and fails on any divergence in
// round reports, final topology, or the delay metric.
func sameRun(t *testing.T, want, got *Engine, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		repWant, err := want.Step()
		if err != nil {
			t.Fatal(err)
		}
		repGot, err := got.Step()
		if err != nil {
			t.Fatal(err)
		}
		if repWant != repGot {
			t.Fatalf("round %d reports diverge: %+v vs %+v", r, repWant, repGot)
		}
	}
	if !reflect.DeepEqual(outgoingSnapshot(want), outgoingSnapshot(got)) {
		t.Fatal("final outgoing tables diverge")
	}
	dWant, err := want.Delays(0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	dGot, err := got.Delays(0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dWant, dGot) {
		t.Fatal("delay metrics diverge")
	}
}

// TestObservationWindowFullWidthMatchesDense checks the windowed
// observation path against the dense one where they must coincide exactly:
// a window at least as wide as the round's block count observes every
// block, so reports, topology evolution, and delays are bit-for-bit those
// of the dense run.
func TestObservationWindowFullWidthMatchesDense(t *testing.T) {
	for _, m := range []Method{Vanilla, Subset} {
		t.Run(m.String(), func(t *testing.T) {
			dense := scaleEngine(t, m, 0, 0, 1)
			windowed := scaleEngine(t, m, 40, 0, 1) // == RoundBlocks
			wide := scaleEngine(t, m, 500, 0, 1)    // > RoundBlocks, clamped
			sameRun(t, dense, windowed, 4)
			// wide saw the same four rounds only if it evolved identically;
			// replay it against a fresh dense engine.
			sameRun(t, scaleEngine(t, m, 0, 0, 1), wide, 4)
		})
	}
}

// TestWindowedEngineDeterministicAcrossWorkers checks the narrow-window
// path (scoring only the last w < RoundBlocks blocks) is itself
// deterministic across worker counts — the window never reintroduces a
// schedule dependence.
func TestWindowedEngineDeterministicAcrossWorkers(t *testing.T) {
	seq := scaleEngine(t, Subset, 10, 0, 1)
	par := scaleEngine(t, Subset, 10, 0, 8)
	sameRun(t, seq, par, 4)
}

// TestShardedEngineMatchesSingleQueue is the engine-level shard acceptance
// check: a sharded engine produces bit-for-bit the unsharded engine's
// rounds at any shard and worker count, including combined with a narrow
// observation window.
func TestShardedEngineMatchesSingleQueue(t *testing.T) {
	t.Run("shards-4", func(t *testing.T) {
		single := scaleEngine(t, Subset, 0, 0, 1)
		sharded := scaleEngine(t, Subset, 0, 4, 1)
		sameRun(t, single, sharded, 4)
	})
	t.Run("shards-4-workers-8", func(t *testing.T) {
		single := scaleEngine(t, Subset, 0, 0, 1)
		sharded := scaleEngine(t, Subset, 0, 4, 8)
		sameRun(t, single, sharded, 4)
	})
	t.Run("windowed-sharded", func(t *testing.T) {
		single := scaleEngine(t, Subset, 10, 0, 1)
		sharded := scaleEngine(t, Subset, 10, 4, 8)
		sameRun(t, single, sharded, 4)
	})
}

// TestScaleConfigValidation covers the new Config knobs' validation.
func TestScaleConfigValidation(t *testing.T) {
	tn := newTestNetwork(t, 50, 1)
	base := tn.config(Subset, DefaultParams(Subset))
	bad := base
	bad.ObservationWindow = -1
	if _, err := NewEngine(bad); err == nil {
		t.Fatal("NewEngine accepted a negative observation window")
	}
	bad = base
	bad.Shards = -2
	if _, err := NewEngine(bad); err == nil {
		t.Fatal("NewEngine accepted a negative shard count")
	}
	bad = base
	bad.LatencyMode = 99
	if _, err := NewEngine(bad); err == nil {
		t.Fatal("NewEngine accepted an invalid latency mode")
	}
}
