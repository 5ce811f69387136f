package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/des"
	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/hashpower"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/topology"
)

// newTestEngine builds a small geographic Perigee engine for workload
// tests, with explicit Workers so determinism tests can vary it.
func newTestEngine(t *testing.T, n int, seed uint64, workers int) (*core.Engine, []float64) {
	t.Helper()
	eng, err := core.NewEngine(testEngineConfig(t, n, seed, workers))
	if err != nil {
		t.Fatal(err)
	}
	return eng, eng.Power()
}

// testEngineConfig is newTestEngine's configuration, for tests that add to
// it.
func testEngineConfig(t *testing.T, n int, seed uint64, workers int) core.Config {
	t.Helper()
	root := rng.New(seed)
	u, err := geo.SampleUniverse(n, root.Derive("universe"))
	if err != nil {
		t.Fatal(err)
	}
	lat, err := latency.NewGeographic(u, root.Derive("latency"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := topology.Random(n, 8, 20, root.Derive("topology"))
	if err != nil {
		t.Fatal(err)
	}
	forward := make([]time.Duration, n)
	fr := root.Derive("forward")
	for i := range forward {
		forward[i] = time.Duration(fr.ExpFloat64() * float64(50*time.Millisecond))
	}
	power, err := hashpower.Exponential(n, root.Derive("power"))
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Method:  core.Subset,
		Params:  core.DefaultParams(core.Subset),
		Table:   tbl,
		Latency: lat,
		Forward: forward,
		Power:   power,
		Rand:    root.Derive("engine"),
		Workers: workers,
	}
}

func runPoisson(t *testing.T, workers int) []byte {
	t.Helper()
	eng, power := newTestEngine(t, 120, 11, workers)
	trace, err := NewPoisson(rng.New(11).Derive("trace"), power, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		Engine:        eng,
		Trace:         trace,
		Duration:      4 * time.Minute,
		RoundInterval: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRunBasicAccounting(t *testing.T) {
	eng, power := newTestEngine(t, 120, 11, 0)
	trace, err := NewPoisson(rng.New(11).Derive("trace"), power, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		Engine:        eng,
		Trace:         trace,
		Duration:      4 * time.Minute,
		RoundInterval: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksMined == 0 {
		t.Fatal("no blocks mined")
	}
	// 240s at a 2s mean: crude 3-sigma band around 120 blocks.
	if rep.BlocksMined < 60 || rep.BlocksMined > 200 {
		t.Fatalf("blocks mined %d wildly off the 2s mean over 4m", rep.BlocksMined)
	}
	if rep.CanonicalBlocks+rep.StaleBlocks != rep.BlocksMined {
		t.Fatalf("canonical %d + stale %d != mined %d", rep.CanonicalBlocks, rep.StaleBlocks, rep.BlocksMined)
	}
	if rep.CanonicalBlocks == 0 {
		t.Fatal("empty canonical chain")
	}
	if rep.Rounds != 8 {
		t.Fatalf("rounds %d, want 8 (4m / 30s)", rep.Rounds)
	}
	total := 0
	for _, r := range rep.Revenue {
		total += r
	}
	if total != rep.CanonicalBlocks {
		t.Fatalf("revenue sums to %d, want %d", total, rep.CanonicalBlocks)
	}
	if rep.RevenueSkew < 0 || rep.RevenueSkew > 1 {
		t.Fatalf("revenue skew %v outside [0, 1]", rep.RevenueSkew)
	}
	if rep.StaleRate < 0 || rep.StaleRate >= 1 {
		t.Fatalf("stale rate %v out of range", rep.StaleRate)
	}
}

// Same seed + same trace must produce a bit-for-bit identical report at any
// Workers count — the determinism the replay codec and the conformance CI
// both stand on.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	base := runPoisson(t, 1)
	if got := runPoisson(t, 8); string(got) != string(base) {
		t.Fatalf("Workers=8 report diverged:\n%s\nvs\n%s", got, base)
	}
}

// recordingTrace wraps a trace so every consumed event is appended to tf
// (whose Version and Nodes the caller sets), capturing exactly the events a
// run consumed, ready for replay.
type recordingTrace struct {
	inner Trace
	tf    *TraceFile
}

func (t *recordingTrace) Next() (Arrival, bool) {
	a, ok := t.inner.Next()
	if ok {
		t.tf.Arrivals = append(t.tf.Arrivals, TraceArrival{AtNS: a.At.Nanoseconds(), Miner: a.Miner})
	}
	return a, ok
}

// Recording a run and replaying the recorded trace must reproduce the
// report byte for byte, through the on-disk codec.
func TestRunReplayByteEqual(t *testing.T) {
	const n = 120
	eng, power := newTestEngine(t, n, 23, 0)
	gen, err := NewPoisson(rng.New(23).Derive("trace"), power, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	recorded := &TraceFile{Version: TraceVersion, Nodes: n}
	cfg := Config{
		Engine:        eng,
		Trace:         &recordingTrace{inner: gen, tf: recorded},
		Duration:      3 * time.Minute,
		RoundInterval: 30 * time.Second,
	}
	rep1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data1, err := json.Marshal(rep1)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := recorded.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}

	eng2, _ := newTestEngine(t, n, 23, 0)
	cfg2 := cfg
	cfg2.Engine = eng2
	cfg2.Trace = loaded.Trace()
	rep2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(rep2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data1) != string(data2) {
		t.Fatalf("replay diverged:\n%s\nvs\n%s", data2, data1)
	}
}

// A static topology must never fire a round, and batch partitioning at the
// staticBatch boundary must not show up in the results.
func TestRunStaticTopology(t *testing.T) {
	eng, power := newTestEngine(t, 120, 31, 0)
	trace, err := NewPoisson(rng.New(31).Derive("trace"), power, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Engine: eng, Trace: trace, Duration: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 0 {
		t.Fatalf("static run fired %d rounds", rep.Rounds)
	}
	if rep.BlocksMined <= staticBatch {
		t.Fatalf("test meant to cross the static batch boundary, mined only %d", rep.BlocksMined)
	}
	if rep.CanonicalBlocks+rep.StaleBlocks != rep.BlocksMined {
		t.Fatalf("accounting broke across batches: %+v", rep)
	}
}

// A run that mines more blocks than a live store keeps bodies for
// (chain.BodyWindow) still accounts for every block.
func TestRunLongerThanBodyWindow(t *testing.T) {
	eng, power := newTestEngine(t, 40, 5, 0)
	trace, err := NewPoisson(rng.New(5).Derive("trace"), power, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Engine: eng, Trace: trace, Duration: 8 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksMined <= chain.BodyWindow {
		t.Fatalf("test meant to outrun the body window, mined only %d", rep.BlocksMined)
	}
	if rep.CanonicalBlocks+rep.StaleBlocks != rep.BlocksMined {
		t.Fatalf("canonical %d + stale %d != mined %d", rep.CanonicalBlocks, rep.StaleBlocks, rep.BlocksMined)
	}
	total := 0
	for _, r := range rep.Revenue {
		total += r
	}
	if total != rep.CanonicalBlocks || rep.CanonicalBlocks == 0 {
		t.Fatalf("revenue sums to %d over a canonical chain of %d", total, rep.CanonicalBlocks)
	}
}

func TestRunValidation(t *testing.T) {
	eng, power := newTestEngine(t, 40, 1, 0)
	trace, err := NewPoisson(rng.New(1), power, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Engine: nil, Trace: trace, Duration: time.Minute},
		{Engine: eng, Trace: nil, Duration: time.Minute},
		{Engine: eng, Trace: trace, Duration: 0},
		{Engine: eng, Trace: trace, Duration: time.Minute, RoundInterval: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
	// A trace whose miner is out of range fails mid-run.
	tf := &TraceFile{Version: TraceVersion, Nodes: 400, Arrivals: []TraceArrival{{AtNS: 1, Miner: 300}}}
	if _, err := Run(Config{Engine: eng, Trace: tf.Trace(), Duration: time.Minute}); err == nil {
		t.Fatal("out-of-range miner accepted")
	}
	// So does one that runs backwards (bypassing the codec's validation).
	back := &replayTrace{arrivals: []TraceArrival{{AtNS: 5e8, Miner: 1}, {AtNS: 1e8, Miner: 2}}}
	if _, err := Run(Config{Engine: eng, Trace: back, Duration: time.Minute}); err == nil {
		t.Fatal("backwards trace accepted")
	}
}

// The compact per-node views must agree with real chain.Store instances
// fed the same delivery schedule through AddAt — with
// FuzzViewsMatchLiveStore, the equivalence that licenses not keeping n
// stores.
func TestViewsMatchChainStores(t *testing.T) {
	const (
		nodes  = 8
		blocks = 120
	)
	genesis := chain.NewGenesis("views-equiv")

	v := newViews(nodes)
	stores := make([]*chain.Store, nodes)
	for i := range stores {
		s, err := chain.NewStore(genesis)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}

	real, schedule := randomDeliveries(rand.New(rand.NewSource(99)), v, genesis, nodes, blocks)
	for _, d := range schedule {
		v.deliver(d.node, d.id)
		if _, err := stores[d.node].AddAt(real[d.id], d.at); err != nil {
			t.Fatalf("store rejected delivery: %v", err)
		}
	}
	for node, s := range stores {
		// Both sides stash blocks that beat their parent, so once every
		// delivery has landed they hold the same blocks and must agree on
		// the tip.
		wantTip := s.Tip().Header.Hash()
		got := real[v.tip[node]].Header.Hash()
		if got != wantTip {
			t.Fatalf("node %d: views tip %s, store tip %s", node, got, wantTip)
		}
	}
}

// heapRun is Run as it replayed deliveries before the per-node inboxes:
// every delivery of the run in one des.DeliveryQueue, popped in global
// (arrival time, push order). It is the reference TestRunMatchesHeapReplay
// holds Run to.
func heapRun(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := cfg.Engine
	n := e.N()

	genesis := chain.NewGenesis("workload")
	store, err := chain.NewStore(genesis)
	if err != nil {
		return nil, err
	}
	views := newViews(n)
	blocks := []*chain.Block{genesis}
	minedBy := []int32{-1}
	ids := map[chain.Hash]int32{genesis.Header.Hash(): 0}
	epoch := time.Unix(0, 0).UTC()

	var queue des.DeliveryQueue
	drainUntil := func(at time.Duration) {
		for queue.Len() > 0 {
			d := queue.PeekMin()
			if d.At >= at {
				return
			}
			queue.PopMin()
			views.deliver(int(d.Node), d.Slot)
		}
	}

	pending, pendingOK := cfg.Trace.Next()
	lastAt := time.Duration(0)

	var batchAt []time.Duration
	var sources []int
	var arrivals [][]time.Duration
	rounds := 0

	for start := time.Duration(0); start < cfg.Duration && (pendingOK || queue.Len() > 0); {
		end := cfg.Duration
		if cfg.RoundInterval > 0 && start+cfg.RoundInterval < end {
			end = start + cfg.RoundInterval
		}

		batchAt, sources = batchAt[:0], sources[:0]
		for pendingOK && pending.At < end {
			if pending.At < lastAt {
				return nil, fmt.Errorf("workload: trace time went backwards: %v after %v", pending.At, lastAt)
			}
			if pending.Miner < 0 || pending.Miner >= n {
				return nil, fmt.Errorf("workload: trace miner %d outside [0, %d)", pending.Miner, n)
			}
			lastAt = pending.At
			batchAt = append(batchAt, pending.At)
			sources = append(sources, pending.Miner)
			pending, pendingOK = cfg.Trace.Next()
			if cfg.RoundInterval == 0 && len(batchAt) == staticBatch {
				break
			}
		}

		if len(batchAt) == 0 {
			drainUntil(end)
			start = end
			continue
		}

		tr, err := core.BeginTimedRound(e, len(batchAt))
		if err != nil {
			return nil, err
		}
		for len(arrivals) < len(batchAt) {
			arrivals = append(arrivals, nil)
		}
		if err := tr.BroadcastAll(sources, arrivals[:len(batchAt)]); err != nil {
			return nil, err
		}

		for k, at := range batchAt {
			drainUntil(at)
			miner := sources[k]
			parent := views.tip[miner]
			id := views.tree.Add(parent)
			blk := chain.NewBlock(blocks[parent], nil, epoch.Add(at), uint64(id))
			blocks = append(blocks, blk)
			minedBy = append(minedBy, int32(miner))
			ids[blk.Header.Hash()] = id
			if _, err := store.AddAt(blk, at); err != nil {
				return nil, fmt.Errorf("workload: canonical store rejected block %d: %w", id, err)
			}
			views.deliver(miner, id)
			for node, d := range arrivals[k] {
				if node == miner || d >= stats.InfDuration {
					continue
				}
				queue.Push(des.Delivery{At: at + d, Node: int32(node), Slot: id})
			}
		}

		if cfg.RoundInterval > 0 {
			if _, err := tr.Finish(); err != nil {
				return nil, err
			}
			rounds++
		}
		if cfg.RoundInterval == 0 && pendingOK && pending.At < end {
			continue
		}
		start = end
	}
	drainUntil(cfg.Duration)

	return buildReport(cfg, n, e.Power(), views, minedBy, ids[store.Tip().Header.Hash()], rounds), nil
}

// TestRunMatchesHeapReplay holds the per-node inboxes to the global heap
// replay they replaced: the same JSON report on every configuration of a
// grid over network size, block interval (20 ms is fork-heavy, 2 s is
// quiet) and round interval (0 is static and crosses staticBatch at the
// short intervals). Each cell runs six seeds: Workers 0, 1 and 2, then
// 0, 1 and 8. -short keeps one seed of the smallest network.
func TestRunMatchesHeapReplay(t *testing.T) {
	intervals := []struct {
		mean, duration time.Duration
	}{
		{20 * time.Millisecond, 6 * time.Second},
		{100 * time.Millisecond, 30 * time.Second},
		{500 * time.Millisecond, time.Minute},
		{2 * time.Second, 2 * time.Minute},
	}
	var blocks, stale int
	for _, n := range []int{40, 120, 200} {
		for _, iv := range intervals {
			for _, round := range []time.Duration{0, 10 * time.Second, 30 * time.Second} {
				for s := 0; s < 6; s++ {
					if testing.Short() && (n != 40 || s != 0) {
						continue
					}
					seed := uint64(1000*n + 10*s + 1)
					workers := s % 3
					if s == 5 {
						workers = 8
					}
					run := func(replay func(Config) (*Report, error)) ([]byte, *Report) {
						eng, power := newTestEngine(t, n, seed, workers)
						trace, err := NewPoisson(rng.New(seed).Derive("trace"), power, iv.mean)
						if err != nil {
							t.Fatal(err)
						}
						rep, err := replay(Config{Engine: eng, Trace: trace, Duration: iv.duration, RoundInterval: round})
						if err != nil {
							t.Fatal(err)
						}
						data, err := json.Marshal(rep)
						if err != nil {
							t.Fatal(err)
						}
						return data, rep
					}
					got, rep := run(Run)
					want, _ := run(heapRun)
					if string(got) != string(want) {
						t.Fatalf("n=%d interval=%v round=%v seed=%d workers=%d: inbox replay diverged from the heap:\n%s\nvs\n%s",
							n, iv.mean, round, seed, workers, got, want)
					}
					blocks += rep.BlocksMined
					stale += rep.StaleBlocks
				}
			}
		}
	}
	t.Logf("%d blocks, %d stale, identical to the heap replay", blocks, stale)
	if stale == 0 {
		t.Fatal("the grid produced no stale block: it never tested a fork")
	}
}

// TestRunFinishBesideReplay holds Run, which replays a round's chain while
// the engine's Finish runs, to heapRun's sequential order on an engine whose
// hooks do what Finish lets them: an Observer that logs every round's
// churn, and a Dynamics that rewrites RelayDelay and evaluates λ through
// Engine.Delays. The reports, the observer logs and the λ values must be
// equal. Under -race it also checks that the replay shares nothing with
// Finish.
func TestRunFinishBesideReplay(t *testing.T) {
	const n, seed = 60, 41
	type hookLog struct {
		events []core.RoundReport
		drops  int
		lambda []time.Duration
	}
	run := func(replay func(Config) (*Report, error), workers int) ([]byte, *hookLog) {
		log := &hookLog{}
		cfg := testEngineConfig(t, n, seed, workers)
		relay := make([]time.Duration, n)
		cfg.RelayDelay = relay
		cfg.Observer = core.ObserverFunc(func(ev core.RoundEvent) {
			log.events = append(log.events, ev.Report)
			log.drops += len(ev.Dropped)
		})
		cfg.Dynamics = core.DynamicsFunc(func(e *core.Engine, round int) error {
			for v := range relay {
				relay[v] = time.Duration((v+round)%4) * 10 * time.Millisecond
			}
			lambda, err := e.Delays(0.9, []int{0, round % n})
			log.lambda = append(log.lambda, lambda...)
			return err
		})
		eng, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := NewPoisson(rng.New(seed).Derive("trace"), cfg.Power, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := replay(Config{Engine: eng, Trace: trace, Duration: time.Minute, RoundInterval: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data, log
	}
	want, wantLog := run(heapRun, 1)
	if len(wantLog.events) != 12 || wantLog.drops == 0 {
		t.Fatalf("the run fired %d rounds and dropped %d links; the case needs 12 rounds of churn",
			len(wantLog.events), wantLog.drops)
	}
	for _, workers := range []int{1, 3} {
		got, gotLog := run(Run, workers)
		if string(got) != string(want) {
			t.Fatalf("workers=%d: report beside Finish diverged from the sequential replay:\n%s\nvs\n%s", workers, got, want)
		}
		if !slices.Equal(gotLog.events, wantLog.events) || gotLog.drops != wantLog.drops ||
			!slices.Equal(gotLog.lambda, wantLog.lambda) {
			t.Fatalf("workers=%d: hooks saw %+v, sequentially %+v", workers, gotLog, wantLog)
		}
	}
}

// A delivery exactly at a mining event's timestamp lands after it: the
// miner extends its old tip and forks the chain. One nanosecond later the
// delivery has landed and the miner extends it.
func TestRunDeliveryAtMiningEventLandsAfter(t *testing.T) {
	const n, seed, miner = 40, 7, 0
	probe, _ := newTestEngine(t, n, seed, 0)
	tr, err := core.BeginTimedRound(probe, 1)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([][]time.Duration, 1)
	if err := tr.BroadcastAll([]int{miner}, arrivals); err != nil {
		t.Fatal(err)
	}
	other, d := -1, time.Duration(0)
	for v, at := range arrivals[0] {
		if v != miner && at > 0 && at < stats.InfDuration {
			other, d = v, at
			break
		}
	}
	if other < 0 {
		t.Fatal("the block reached nobody")
	}
	const start = time.Second
	for _, tc := range []struct {
		at    time.Duration
		forks int
	}{
		{start + d, 1},
		{start + d + 1, 0},
	} {
		eng, _ := newTestEngine(t, n, seed, 0)
		tf := &TraceFile{Version: TraceVersion, Nodes: n, Arrivals: []TraceArrival{
			{AtNS: int64(start), Miner: miner},
			{AtNS: int64(tc.at), Miner: other},
		}}
		rep, err := Run(Config{Engine: eng, Trace: tf.Trace(), Duration: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ForkEvents != tc.forks || rep.StaleBlocks != tc.forks {
			t.Fatalf("node %d mining at %v (block lands at %v): %d forks, %d stale, want %d",
				other, tc.at, start+d, rep.ForkEvents, rep.StaleBlocks, tc.forks)
		}
	}
}

// Two blocks mined at the same instant on the same parent tie on height;
// the first-mined one is canonical, whatever the two blocks would hash to.
func TestRunEqualTimeTieGoesToFirstMined(t *testing.T) {
	eng, _ := newTestEngine(t, 40, 3, 0)
	tf := &TraceFile{Version: TraceVersion, Nodes: 40, Arrivals: []TraceArrival{
		{AtNS: 1e9, Miner: 3},
		{AtNS: 1e9, Miner: 7},
	}}
	rep, err := Run(Config{Engine: eng, Trace: tf.Trace(), Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Revenue[3] != 1 || rep.Revenue[7] != 0 || rep.StaleBlocks != 1 {
		t.Fatalf("revenue %d for miner 3 and %d for miner 7, %d stale; want 1, 0 and 1",
			rep.Revenue[3], rep.Revenue[7], rep.StaleBlocks)
	}
}
