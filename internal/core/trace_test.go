package core

import (
	"slices"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/netsim"
	"github.com/perigee-net/perigee/internal/stats"
)

// countingSink counts the records a traced engine streams.
type countingSink struct{ decisions, counterfactuals int }

func (s *countingSink) TraceDecision(DecisionTrace)             { s.decisions++ }
func (s *countingSink) TraceCounterfactual(CounterfactualTrace) { s.counterfactuals++ }

// TestCounterfactualOffsetsMatchBroadcast pins the offsets a traced engine
// measures for the alternatives its decisions rejected. Each pending
// query's offset for a block is rebuilt independently from the block's
// Broadcast over the start-of-round topology: the peer's arrival plus its
// validation and withholding delays plus the peer–node link, relative to the
// earlier of that and the node's first announcement, the minimum of its
// EdgeArrival row; a peer that is silent or never reached is censored.
func TestCounterfactualOffsetsMatchBroadcast(t *testing.T) {
	const n = 80
	params := DefaultParams(Subset)
	params.RoundBlocks = 12
	tn := newTestNetwork(t, n, 11)
	silent := make([]bool, n)
	relay := make([]time.Duration, n)
	for v := range silent {
		silent[v] = v%7 == 3
		relay[v] = time.Duration(v%3) * 20 * time.Millisecond
	}
	sink := &countingSink{}
	cfg := tn.config(Subset, params)
	cfg.Silent, cfg.RelayDelay = silent, relay
	cfg.Trace = TraceConfig{Level: TraceDecisions, CounterfactualK: 2, Sink: sink}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	finite, censored := 0, 0
	for round := 0; round < 3; round++ {
		pending := slices.Clone(eng.scratch.cfPending)
		if len(pending) == 0 {
			t.Fatalf("round %d: no counterfactual pending", round)
		}
		sources := make([]int, params.RoundBlocks)
		for b := range sources {
			sources[b] = eng.sampler.Sample(eng.rand)
		}
		sim, err := netsim.New(netsim.Config{Adj: eng.Adjacency(), Latency: tn.lat, Forward: tn.forward,
			Silent: silent, RelayDelay: relay})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := BeginTimedRound(eng, params.RoundBlocks)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BroadcastAll(sources, nil); err != nil {
			t.Fatal(err)
		}
		for b, src := range sources {
			res, err := sim.Broadcast(src)
			if err != nil {
				t.Fatal(err)
			}
			for q, query := range pending {
				want := stats.InfDuration
				if p := query.peer; res.Arrival[p] != stats.InfDuration && !silent[p] {
					hyp := res.Arrival[p] + tn.forward[p] + relay[p] + tn.lat.Delay(p, query.node)
					want = hyp - min(hyp, slices.Min(res.EdgeArrival[query.node]))
				}
				if got := eng.scratch.cfOffsets[q][b]; got != want {
					t.Fatalf("round %d block %d: query %+v offset %v, from Broadcast %v", round, b, query, got, want)
				}
				if want == stats.InfDuration {
					censored++
				} else {
					finite++
				}
			}
		}
		if _, err := tr.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if finite == 0 || censored == 0 {
		t.Fatalf("%d finite and %d censored offsets; the case needs both", finite, censored)
	}
	if sink.counterfactuals == 0 {
		t.Fatal("no counterfactual was streamed")
	}
}
