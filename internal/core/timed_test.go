package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/hashpower"
	"github.com/perigee-net/perigee/internal/netsim"
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
		for _, row := range view.Observations.Offsets {
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

// TestBroadcastAllMatchesOneFloodPerBlock referees BroadcastAll's flooding
// of each miner once: on engines whose power is the paper's pools setting
// (10% of the nodes hold 90% of it), every block it copies from an earlier
// block of its miner must equal a flood of its own. Each block is flooded
// again with Broadcast over the start-of-round topology, and BroadcastAll
// must give its arrival vector, the observation rows harvestByRowMinimum
// builds from the flood's EdgeArrival record, and the counterfactual rows
// TestCounterfactualOffsetsMatchBroadcast holds the engine to. The shapes
// are: every block from one miner; a miner whose blocks straddle the
// window's start, with caller buffers (some too short, some holding
// garbage); a window without caller buffers; withholding relays with a
// silent repeated miner; and tracing with CounterfactualK 2. BroadcastAll
// must flood exactly one group per distinct source and leave its per-node
// index zero.
func TestBroadcastAllMatchesOneFloodPerBlock(t *testing.T) {
	const n, blocks = 80, 16
	shapes := []struct {
		name            string
		window          int
		arrivals        bool
		oneMiner, relay bool
		counterfactuals bool
	}{
		{name: "one-miner", arrivals: true, oneMiner: true},
		{name: "window-straddle", window: 6, arrivals: true},
		{name: "window-nil-arrivals", window: 6},
		{name: "relay-silent-miner", arrivals: true, relay: true},
		{name: "counterfactuals", window: 6, arrivals: true, relay: true, counterfactuals: true},
	}
	for _, shape := range shapes {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s-workers%d", shape.name, workers), func(t *testing.T) {
				tn := newTestNetwork(t, n, 17)
				power, miners, err := hashpower.Pools(n, 0.1, 0.9, tn.root.Derive("pools"))
				if err != nil {
					t.Fatal(err)
				}
				repeated := miners[0]
				silent := make([]bool, n)
				var relay []time.Duration
				if shape.relay {
					relay = make([]time.Duration, n)
					for v := range silent {
						silent[v] = v%7 == 3
						relay[v] = time.Duration(v%3) * 20 * time.Millisecond
					}
					silent[repeated] = true
				}
				params := DefaultParams(Subset)
				params.RoundBlocks = blocks
				cfg := tn.config(Subset, params)
				cfg.Power, cfg.Silent, cfg.RelayDelay = power, silent, relay
				cfg.Workers, cfg.ObservationWindow = workers, shape.window
				if shape.counterfactuals {
					cfg.Trace = TraceConfig{Level: TraceDecisions, CounterfactualK: 2, Sink: &countingSink{}}
				}
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Step(); err != nil {
					t.Fatal(err)
				}
				window := blocks
				if shape.window > 0 {
					window = shape.window
				}
				copies, cfCells := 0, 0
				for round := 0; round < 2; round++ {
					sources := make([]int, blocks)
					for b := range sources {
						sources[b] = eng.sampler.Sample(eng.rand)
						if shape.oneMiner || b == 2 || b == blocks-window || b == blocks-1 {
							sources[b] = repeated
						}
					}
					var arrivals [][]time.Duration
					if shape.arrivals {
						arrivals = make([][]time.Duration, blocks)
						for b := range arrivals {
							arrivals[b] = make([]time.Duration, b%2*n+3)
							for v := range arrivals[b] {
								arrivals[b][v] = -7
							}
						}
					}
					tr, err := BeginTimedRound(eng, blocks)
					if err != nil {
						t.Fatal(err)
					}
					pending := slices.Clone(eng.scratch.cfPending)
					if shape.counterfactuals && len(pending) == 0 {
						t.Fatalf("round %d: no counterfactual pending", round)
					}
					if err := tr.BroadcastAll(sources, arrivals); err != nil {
						t.Fatal(err)
					}
					first := 0
					if !shape.arrivals {
						first = blocks - window
					}
					distinct := map[int]bool{}
					for _, src := range sources[first:] {
						distinct[src] = true
					}
					if got := len(eng.scratch.groups); got != len(distinct) {
						t.Fatalf("round %d: %d groups for %d distinct sources", round, got, len(distinct))
					}
					if slices.ContainsFunc(eng.scratch.lastOf, func(i int32) bool { return i != 0 }) {
						t.Fatalf("round %d: BroadcastAll left its source index set", round)
					}

					adj := eng.Adjacency()
					sim, err := netsim.New(netsim.Config{Adj: adj, Latency: tn.lat, Forward: tn.forward,
						Silent: silent, RelayDelay: relay})
					if err != nil {
						t.Fatal(err)
					}
					outs := make([][]int, n)
					for v := range outs {
						outs[v] = eng.scratch.in.out(v)
					}
					slot := make([][]int, n)
					want := make([]Observations, n)
					for v := range outs {
						for _, u := range outs[v] {
							slot[v] = append(slot[v], slices.Index(adj[v], u))
						}
						want[v].Reset(outs[v], window)
					}
					seen := map[int]bool{}
					for b := first; b < blocks; b++ {
						src := sources[b]
						if seen[src] {
							copies++
						}
						seen[src] = true
						res, err := sim.Broadcast(src)
						if err != nil {
							t.Fatal(err)
						}
						if arrivals != nil && !slices.Equal(arrivals[b], res.Arrival) {
							t.Fatalf("round %d block %d (miner %d): arrivals %v, flood %v", round, b, src, arrivals[b], res.Arrival)
						}
						row := b - (blocks - window)
						if row < 0 {
							continue
						}
						harvestByRowMinimum(res, row, want, outs, slot)
						for q, query := range pending {
							want := stats.InfDuration
							if p := query.peer; res.Arrival[p] != stats.InfDuration && !silent[p] {
								hyp := res.Arrival[p] + tn.forward[p] + tn.lat.Delay(p, query.node)
								if relay != nil {
									hyp += relay[p]
								}
								want = hyp - min(hyp, slices.Min(res.EdgeArrival[query.node]))
							}
							if got := eng.scratch.cfOffsets[q][row]; got != want {
								t.Fatalf("round %d block %d (miner %d): query %+v offset %v, flood %v", round, b, src, query, got, want)
							}
							cfCells++
						}
					}
					for v := range want {
						for row := range want[v].Offsets {
							if got := eng.scratch.obs[v].Offsets[row]; !slices.Equal(got, want[v].Offsets[row]) {
								t.Fatalf("round %d node %d window row %d (miner %d): offsets %v, flood %v",
									round, v, row, sources[blocks-window+row], got, want[v].Offsets[row])
							}
						}
					}
					if _, err := tr.Finish(); err != nil {
						t.Fatal(err)
					}
				}
				if copies == 0 {
					t.Fatal("no block repeated an earlier block's miner")
				}
				if shape.counterfactuals && cfCells == 0 {
					t.Fatal("no counterfactual cell was checked")
				}
			})
		}
	}
}

// poolsEngine builds a Subset engine on a 300-node network whose power is
// the paper's pools setting, with the given Tamper hook and selector (nil:
// the default).
func poolsEngine(t *testing.T, tamper func(int, []int, [][]time.Duration), sel Selector) *Engine {
	t.Helper()
	const n = 300
	tn := newTestNetwork(t, n, 38)
	power, _, err := hashpower.Pools(n, 0.1, 0.9, tn.root.Derive("pools"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tn.config(Subset, DefaultParams(Subset))
	cfg.Power, cfg.Tamper, cfg.Selector = power, tamper, sel
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDistinctRowsLeaveRoundsUnchanged runs 30 rounds of a pools network
// twice: once with no Tamper hook, where every node's observations carry the
// round's distinct rows and SubsetSelect scores them, and once with a hook
// that changes nothing but suppresses the list. Reports and topologies must
// be identical round by round. The list must be each miner's first row
// with the count of its rows, and must drop at least a quarter of the rows
// in most rounds, or the test would not reach the weighted kernels.
func TestDistinctRowsLeaveRoundsUnchanged(t *testing.T) {
	subset, err := SelectorFromMethod(Subset, DefaultParams(Subset))
	if err != nil {
		t.Fatal(err)
	}
	var listed, weighted atomic.Int64
	var listedEngine *Engine
	check := SelectorFunc(func(view NeighborView) (Decision, error) {
		if view.Observations.distinct == nil {
			return Decision{}, fmt.Errorf("node %d: no distinct-row list", view.Node)
		}
		// Every node shares the engine's list; check it once a round.
		if view.Node == 0 {
			sources := listedEngine.scratch.sources
			var rows, counts []int32
			firstRow := map[int]int{}
			for b, src := range sources {
				if j, ok := firstRow[src]; ok {
					counts[j]++
					continue
				}
				firstRow[src] = len(rows)
				rows, counts = append(rows, int32(b)), append(counts, 1)
			}
			if !slices.Equal(view.Observations.distinct, rows) || !slices.Equal(view.Observations.weight, counts) {
				return Decision{}, fmt.Errorf("distinct rows %v x %v, want %v x %v", view.Observations.distinct, view.Observations.weight, rows, counts)
			}
			if 4*len(rows) <= 3*len(sources) {
				weighted.Add(1)
			}
		}
		listed.Add(1)
		return subset.SelectNeighbors(view)
	})
	listedEngine = poolsEngine(t, nil, check)
	noop := poolsEngine(t, func(int, []int, [][]time.Duration) {}, SelectorFunc(func(view NeighborView) (Decision, error) {
		if view.Observations.distinct != nil {
			return Decision{}, fmt.Errorf("node %d: a distinct-row list despite the Tamper hook", view.Node)
		}
		return subset.SelectNeighbors(view)
	}))
	const rounds = 30
	for round := 1; round <= rounds; round++ {
		a, err := listedEngine.Step()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		b, err := noop.Step()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if a != b {
			t.Fatalf("round %d: report %+v with the list, %+v without", round, a, b)
		}
		if !slices.EqualFunc(listedEngine.Adjacency(), noop.Adjacency(), slices.Equal[[]int]) {
			t.Fatalf("round %d: topologies differ", round)
		}
	}
	if listed.Load() != rounds*300 || weighted.Load() < rounds/2 {
		t.Fatalf("%d decisions saw the list (want %d), %d of %d rounds scored it", listed.Load(), rounds*300, weighted.Load(), rounds)
	}
}

// TestTamperedRepeatEqualsScan edits one copy of a repeated row in a Tamper
// hook: the second block of the round's busiest miner gets its first
// neighbour's offset raised, which the distinct rows, listing only the
// miner's first block, would not see. The engine must attach no list, and
// every decision must equal the scan of the tampered matrix. The same
// matrices with the stale list attached must choose differently somewhere,
// or the edit would prove nothing.
func TestTamperedRepeatEqualsScan(t *testing.T) {
	params := DefaultParams(Subset)
	retain := params.OutDegree - params.Explore
	subset, err := SelectorFromMethod(Subset, params)
	if err != nil {
		t.Fatal(err)
	}
	var e *Engine
	var edited int
	tamper := func(_ int, _ []int, offsets [][]time.Duration) {
		sources := e.scratch.sources
		count := map[int]int{}
		busiest := sources[0]
		for _, src := range sources {
			if count[src]++; count[src] > count[busiest] {
				busiest = src
			}
		}
		for b, seen := 0, 0; b < len(sources); b++ {
			if sources[b] == busiest {
				if seen++; seen == 2 {
					offsets[b][0] = stats.InfDuration
					edited = b
				}
			}
		}
	}
	var decisions, stale atomic.Int64
	e = poolsEngine(t, tamper, SelectorFunc(func(view NeighborView) (Decision, error) {
		if view.Observations.distinct != nil {
			return Decision{}, fmt.Errorf("node %d: a distinct-row list despite the Tamper hook", view.Node)
		}
		d, err := subset.SelectNeighbors(view)
		if err != nil {
			return d, err
		}
		keep := slices.Clone(d.Keep)
		slices.Sort(keep)
		if want := scanSubsetSelect(view.Observations, retain, params.Percentile); !slices.Equal(keep, want) {
			return d, fmt.Errorf("node %d: kept %v, scan of the tampered matrix %v", view.Node, keep, want)
		}
		withList := view.Observations
		withList.distinct, withList.weight = e.scratch.distinct, e.scratch.weight
		if slices.Contains(withList.distinct, int32(edited)) {
			return d, fmt.Errorf("the edited row %d is listed as distinct", edited)
		}
		if !slices.Equal(SubsetSelect(withList, retain, params.Percentile), keep) {
			stale.Add(1)
		}
		decisions.Add(1)
		return d, nil
	}))
	for round := 1; round <= 10; round++ {
		if _, err := e.Step(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if decisions.Load() != 10*300 || stale.Load() == 0 {
		t.Fatalf("%d decisions checked, %d would differ under the stale list; want %d and some", decisions.Load(), stale.Load(), 10*300)
	}
}

// TestDistinctRowsCoverTheWindow checks the list on timed rounds whose
// window is shorter than the round, with and without caller buffers: with
// them every block is flooded, and a miner's blocks before the window must
// neither be listed nor counted. The list is attached exactly when the
// window repeats a miner.
func TestDistinctRowsCoverTheWindow(t *testing.T) {
	const n, blocks, window = 80, 16, 6
	tn := newTestNetwork(t, n, 17)
	params := DefaultParams(Subset)
	params.RoundBlocks = blocks
	cfg := tn.config(Subset, params)
	cfg.ObservationWindow = window
	var seen []int32
	subset, err := SelectorFromMethod(Subset, params)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Selector = SelectorFunc(func(view NeighborView) (Decision, error) {
		if view.Node == 0 {
			seen = view.Observations.distinct
		}
		return subset.SelectNeighbors(view)
	})
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := [][]int{
		{1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 1, 3, 3, 1},           // 1 straddles the window
		{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 10, 11, 12, 13, 14, 15},     // no repeat inside it
		{20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 5, 5, 5, 5, 5, 5}, // one miner fills it
	}
	for _, sources := range rounds {
		for _, withArrivals := range []bool{false, true} {
			var arrivals [][]time.Duration
			if withArrivals {
				arrivals = make([][]time.Duration, blocks)
			}
			tr, err := BeginTimedRound(e, blocks)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BroadcastAll(sources, arrivals); err != nil {
				t.Fatal(err)
			}
			var rows, counts []int32
			firstRow := map[int]int{}
			for row, src := range sources[blocks-window:] {
				if j, ok := firstRow[src]; ok {
					counts[j]++
					continue
				}
				firstRow[src] = len(rows)
				rows, counts = append(rows, int32(row)), append(counts, 1)
			}
			rs := &e.scratch
			if !slices.Equal(rs.distinct, rows) || !slices.Equal(rs.weight, counts) {
				t.Fatalf("sources %v, arrivals %v: distinct rows %v x %v, want %v x %v", sources, withArrivals, rs.distinct, rs.weight, rows, counts)
			}
			if _, err := tr.Finish(); err != nil {
				t.Fatal(err)
			}
			if attached := seen != nil; attached != (len(rows) < window) {
				t.Fatalf("sources %v: list attached %v with %d distinct rows of %d", sources, attached, len(rows), window)
			}
		}
	}
}
