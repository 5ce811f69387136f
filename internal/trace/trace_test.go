package trace

import (
	"bytes"
	"math"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/topology"
)

// tracedEngine builds a small traced engine; every knob that must not
// change the trace stream (workers, shards) is a parameter.
func tracedEngine(t *testing.T, method core.Method, workers, shards int, col *Collector) *core.Engine {
	t.Helper()
	const n = 48
	root := rng.New(11)
	u, err := geo.SampleUniverse(n, root.Derive("universe"))
	if err != nil {
		t.Fatal(err)
	}
	lat, err := latency.NewGeographic(u, root.Derive("latency"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := topology.Random(n, 6, 16, root.Derive("topology"))
	if err != nil {
		t.Fatal(err)
	}
	forward := make([]time.Duration, n)
	for i := range forward {
		forward[i] = 30 * time.Millisecond
	}
	power := make([]float64, n)
	for i := range power {
		power[i] = 1.0 / float64(n)
	}
	params := core.DefaultParams(method)
	params.OutDegree = 6
	if method != core.UCB {
		params.RoundBlocks = 20
	}
	engine, err := core.NewEngine(core.Config{
		Method: method, Params: params, Table: tbl,
		Latency: lat, Forward: forward, Power: power,
		Rand: root.Derive("engine"), Workers: workers, Shards: shards,
		Trace: core.TraceConfig{Level: core.TraceInputs, CounterfactualK: 3, Sink: col},
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// traceStream runs `rounds` traced rounds and returns the NDJSON stream.
func traceStream(t *testing.T, method core.Method, workers, shards, rounds int) []byte {
	t.Helper()
	col := &Collector{Selector: method.String()}
	engine := tracedEngine(t, method, workers, shards, col)
	for i := 0; i < rounds; i++ {
		if _, err := engine.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, col.Records()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterministic asserts the trace stream is byte-identical at any
// Workers and Shards count, for every built-in selector. The UCB engine
// runs more rounds because its rounds carry a single block.
func TestTraceDeterministic(t *testing.T) {
	for _, method := range []core.Method{core.Subset, core.Vanilla, core.UCB} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			t.Parallel()
			rounds := 4
			if method == core.UCB {
				rounds = 12
			}
			ref := traceStream(t, method, 1, 0, rounds)
			if len(ref) == 0 {
				t.Fatal("empty trace stream")
			}
			if got := traceStream(t, method, 8, 0, rounds); !bytes.Equal(ref, got) {
				t.Errorf("trace stream differs between Workers=1 and Workers=8")
			}
			if got := traceStream(t, method, 0, 4, rounds); !bytes.Equal(ref, got) {
				t.Errorf("trace stream differs between Shards=1 and Shards=4")
			}
		})
	}
}

// TestTraceConsistency cross-checks the stream's internal structure: every
// counterfactual references a preceding decision's dropped peer at a valid
// rank, regret arithmetic matches its operands, and counterfactuals for
// round R arrive before decisions of round R+1.
func TestTraceConsistency(t *testing.T) {
	recs, err := ReadNDJSON(bytes.NewReader(traceStream(t, core.Subset, 0, 0, 4)))
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ round, node int }
	dropped := map[key]map[int]bool{}
	decisions, cfs := 0, 0
	maxDecisionRound := 0
	for _, rec := range recs {
		switch rec.Kind {
		case KindDecision:
			decisions++
			if rec.Round <= cfRoundFloor(maxDecisionRound) {
				t.Fatalf("decision for round %d after counterfactuals of round %d", rec.Round, maxDecisionRound)
			}
			set := map[int]bool{}
			for _, u := range rec.Dropped {
				set[u] = true
			}
			dropped[key{rec.Round, rec.Node}] = set
			if len(rec.ScoresMs) != len(rec.Neighbors) || len(rec.CensoredBlocks) != len(rec.Neighbors) {
				t.Fatalf("inputs-level decision record has mismatched score/censored lengths: %+v", rec)
			}
			if len(rec.Kept)+len(rec.Dropped) != len(rec.Neighbors) {
				t.Fatalf("kept+dropped != neighbors in %+v", rec)
			}
		case KindCounterfactual:
			cfs++
			if rec.Round > maxDecisionRound {
				maxDecisionRound = rec.Round
			}
			set := dropped[key{rec.Round, rec.Node}]
			if set == nil || !set[rec.Peer] {
				t.Fatalf("counterfactual for (round %d, node %d, peer %d) has no matching dropped decision", rec.Round, rec.Node, rec.Peer)
			}
			if rec.Rank < 0 || rec.Rank >= 3 {
				t.Fatalf("counterfactual rank %d outside [0,3)", rec.Rank)
			}
			if !rec.Censored {
				want := float64(rec.WorstKeptMs) - float64(rec.CounterfactualMs)
				if math.Abs(float64(rec.RegretMs)-want) > 1e-9 {
					t.Fatalf("regret %v != worst-kept %v - counterfactual %v", rec.RegretMs, rec.WorstKeptMs, rec.CounterfactualMs)
				}
			}
		default:
			t.Fatalf("unknown record kind %q", rec.Kind)
		}
	}
	if decisions == 0 || cfs == 0 {
		t.Fatalf("expected both decisions (%d) and counterfactuals (%d) in the stream", decisions, cfs)
	}
}

// cfRoundFloor: once counterfactuals of round R have been seen, only
// decisions of rounds > R may follow (the engine emits cf(R) before
// decisions(R+1)).
func cfRoundFloor(maxCfRound int) int { return maxCfRound }

// TestNDJSONRoundTrip checks the codec preserves records, including
// censored (null) values.
func TestNDJSONRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindDecision, Selector: "Perigee-Subset", Round: 1, Node: 3, Kept: []int{1, 2}, Dropped: []int{9}, Dial: 1,
			Neighbors: []int{1, 2, 9}, ScoresMs: []Ms{1.5, 2.25, Ms(math.Inf(1))}, CensoredBlocks: []int{0, 0, 20}},
		{Kind: KindCounterfactual, Round: 1, Node: 3, Peer: 9, Rank: 0,
			DecisionScoreMs: 17, CounterfactualMs: Ms(math.Inf(1)), WorstKeptMs: 4, RegretMs: Ms(math.Inf(1)), Censored: true},
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"scores_ms":[1.5,2.25,null]`)) {
		t.Fatalf("censored score not encoded as null:\n%s", buf.String())
	}
	got, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round-trip returned %d records, want %d", len(got), len(recs))
	}
	if !got[0].ScoresMs[2].Censored() {
		t.Fatal("null score did not decode to censored")
	}
	if got[1].Peer != 9 || !got[1].Censored {
		t.Fatalf("counterfactual did not round-trip: %+v", got[1])
	}
}

// TestCollectorCopiesInputs guards against the Collector retaining engine
// scratch: mutating the trace structs after the sink call must not change
// the buffered records.
func TestCollectorCopiesInputs(t *testing.T) {
	col := &Collector{Selector: "x"}
	neighbors := []int{4, 7}
	keep := []int{0}
	drop := []int{1}
	scores := []time.Duration{time.Millisecond, stats.InfDuration}
	censored := []int{0, 3}
	offsets := [][]time.Duration{{time.Millisecond, stats.InfDuration}}
	col.TraceDecision(core.DecisionTrace{
		Round: 1, Node: 0, Neighbors: neighbors, Keep: keep, Drop: drop,
		Scores: scores, Censored: censored, Offsets: offsets,
	})
	neighbors[0], keep[0], drop[0] = 99, 99, 99
	scores[0], censored[0], offsets[0][0] = 99, 99, 99
	rec := col.Records()[0]
	if rec.Kept[0] != 4 || rec.Dropped[0] != 7 || rec.Neighbors[0] != 4 {
		t.Fatalf("record aliases engine scratch: %+v", rec)
	}
	if rec.ScoresMs[0] != 1 || rec.CensoredBlocks[0] != 0 || rec.OffsetsMs[0][0] != 1 {
		t.Fatalf("record inputs alias engine scratch: %+v", rec)
	}
}
