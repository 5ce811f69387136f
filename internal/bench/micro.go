// Package bench defines the bodies of the repository's hot-path
// micro-benchmarks, which the root bench_test.go runs (go test -bench=Micro)
// and scripts/bench.sh gates on allocations.
package bench

import (
	"bytes"
	"cmp"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/hashpower"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/netsim"
	"github.com/perigee-net/perigee/internal/paper"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/topology"
	"github.com/perigee-net/perigee/internal/wire"
	"github.com/perigee-net/perigee/internal/workload"
)

// Network builds an n-node random-topology simulator plus a uniform power
// vector, the standard micro-bench network, in the latency mode Auto
// resolves to (precomputed at every size benchmarked here).
func Network(b *testing.B, n int) (*netsim.Simulator, []float64) {
	b.Helper()
	sim, _, power := network(b, n, latency.Auto)
	return sim, power
}

// network is Network in an explicit latency mode, also returning the
// connection table the simulator's adjacency was taken from.
func network(b *testing.B, n int, mode latency.Mode) (*netsim.Simulator, *topology.Table, []float64) {
	b.Helper()
	root := rng.New(1)
	_, lat, err := paper.Geographic(n, root)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := paper.Random(n, root.Derive("topology"))
	if err != nil {
		b.Fatal(err)
	}
	sim, err := netsim.New(netsim.Config{Adj: tbl.Undirected(), Latency: lat, Forward: paper.Forward(n, paper.Validation), LatencyMode: mode})
	if err != nil {
		b.Fatal(err)
	}
	power, err := hashpower.Uniform(n)
	if err != nil {
		b.Fatal(err)
	}
	return sim, tbl, power
}

// MicroBroadcast measures one block broadcast over an n-node network (the
// inner loop of every experiment) in the given latency mode: Auto reads the
// per-edge delay array at every size run here, Streaming hashes each edge's
// δ as the flood crosses it. The scratch is warmed before the timer starts,
// so allocs/op reports the steady state — the CSR hot path's contract is
// zero in either mode.
func MicroBroadcast(n int, mode latency.Mode) func(b *testing.B) {
	return func(b *testing.B) {
		sim, _, _ := network(b, n, mode)
		for src := 0; src < 3; src++ {
			if _, err := sim.Broadcast(src); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Broadcast(i % n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// perigeeRewire applies one Perigee-shaped round to tbl: every node drops
// two outgoing connections and dials two peers it has no link with.
func perigeeRewire(b *testing.B, tbl *topology.Table, r *rng.RNG) {
	n := tbl.N()
	var buf [8]int
	for v := 0; v < n; v++ {
		out := tbl.AppendOutNeighbors(buf[:0], v)
		for _, u := range out[:2] {
			if err := tbl.Disconnect(v, u); err != nil {
				b.Fatal(err)
			}
		}
		for dialled := 0; dialled < 2; {
			u := r.IntN(n)
			if u == v || tbl.HasOut(v, u) || tbl.HasOut(u, v) || tbl.InFree(u) == 0 {
				continue
			}
			if err := tbl.Connect(v, u); err != nil {
				b.Fatal(err)
			}
			dialled++
		}
	}
}

// MicroTopologyRandom measures one topology.Random build of n nodes at the
// paper's degrees (8 out, at most 20 in). Its B/op and allocs/op are what
// scripts/bench.sh gates: a build allocates the table's two slabs and a
// few index arrays, in proportion to n·maxIn, and nothing per row.
func MicroTopologyRandom(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := paper.Random(n, rng.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// MicroTableRewire measures the connection table's share of a round at n
// nodes: one Perigee-shaped rewire, one Connect or Disconnect at a time,
// then every node's row of the communication graph appended into last
// round's buffer, as the engine's simulator reads them into its CSR. The
// buffer is sized once by UndirectedBound, which a rewire that keeps every
// out-degree leaves alone, and table rows live in fixed windows, so no op
// allocates, the first included.
func MicroTableRewire(n int) func(b *testing.B) { return tableRewire(n, false) }

// MicroTableEdit is MicroTableRewire with the rewire run as one table edit,
// as the engine runs a round's: the drops and dials write only out-rows and
// incoming counts, and Commit writes every in-row in one pass. It allocates
// nothing either.
func MicroTableEdit(n int) func(b *testing.B) { return tableRewire(n, true) }

func tableRewire(n int, edit bool) func(b *testing.B) {
	return func(b *testing.B) {
		tbl, err := paper.Random(n, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(6)
		rows := make([]int32, 0, tbl.UndirectedBound(0, n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if edit {
				tbl.Begin()
			}
			perigeeRewire(b, tbl, r)
			tbl.Commit()
			rows = rows[:0]
			for v := 0; v < n; v++ {
				rows = tbl.AppendUndirected(rows, v)
			}
		}
	}
}

// MicroReconfigure measures Simulator.ReconfigureRows across one
// Perigee-shaped rewire of an n-node network, the engine's path from the
// table's rows to the CSR: ops alternate between a table and a copy that a
// round of "every node drops two links and dials two" has moved on, so each
// op carries the delays of the surviving three quarters of the edges and
// asks the latency model for the rest. Both tables are built before the
// timer starts; in steady state a reconfiguration allocates nothing.
func MicroReconfigure(n int) func(b *testing.B) {
	return func(b *testing.B) {
		sim, tbl, _ := network(b, n, latency.Auto)
		next := tbl.Clone()
		perigeeRewire(b, next, rng.New(6))
		tables := [2]*topology.Table{next, tbl}
		for _, t := range tables { // grow both buffer generations
			if err := sim.ReconfigureRows(t); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sim.ReconfigureRows(tables[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// MicroAnalyticArrival measures the arrival-only flood the λ_v metric runs,
// the bucket-queue pass with its queue taken from a pool.
func MicroAnalyticArrival(n int) func(b *testing.B) {
	return func(b *testing.B) {
		sim, _ := Network(b, n)
		buf, err := sim.ArrivalAnalyticInto(nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if buf, err = sim.ArrivalAnalyticInto(buf, i%n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// MicroDelayToFraction measures the weighted coverage metric.
func MicroDelayToFraction(b *testing.B) {
	sim, power := Network(b, 1000)
	arrival, err := sim.ArrivalAnalytic(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.DelayToFraction(arrival, power, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNodes is the size of the engine the scoring and round benchmarks run.
const benchNodes = 300

// subsetEngine builds an n-node Subset engine on a random topology with
// rounds of roundBlocks blocks, of which each node scores the last window
// (zero: all), deciding through sel when it is non-nil and drawing miners by
// power, uniformly when it is nil.
func subsetEngine(n int, seed uint64, roundBlocks, window int, sel core.Selector, power []float64) (*core.Engine, error) {
	return paper.Engine(paper.Spec{
		Config: core.Config{
			Method: core.Subset, Selector: sel, Power: power,
			ObservationWindow: window,
		},
		Nodes:       n,
		Root:        rng.New(seed),
		RoundBlocks: roundBlocks,
	})
}

// captureRound returns the observation matrices the nodes of a 300-node
// Subset engine, drawing miners by power (uniformly when nil) and scoring
// the last window blocks of each round (zero: all 100), decided on in its
// third round, copied with their distinct-row lists.
func captureRound(power []float64, window int) []core.Observations {
	const warm = 2
	subset, err := core.SelectorFromMethod(core.Subset, core.DefaultParams(core.Subset))
	if err != nil {
		panic(err)
	}
	var captured []core.Observations
	// The engine reuses every view's buffers next round, so the wrapper
	// copies; it decides nodes concurrently, each into its own slot.
	wrap := core.SelectorFunc(func(view core.NeighborView) (core.Decision, error) {
		if captured != nil {
			captured[view.Node] = view.Observations.Clone()
		}
		return subset.SelectNeighbors(view)
	})
	engine, err := subsetEngine(benchNodes, 7, 100, window, wrap, power)
	if err != nil {
		panic(err)
	}
	for round := 0; round <= warm; round++ {
		if round == warm {
			captured = make([]core.Observations, benchNodes)
		}
		if _, err := engine.Step(); err != nil {
			panic(err)
		}
	}
	return captured
}

// The captures are deterministic and several benchmarks rotate over them.
var (
	roundObservations      = sync.OnceValue(func() []core.Observations { return captureRound(nil, 0) })
	poolsRoundObservations = sync.OnceValue(func() []core.Observations {
		return captureRound(poolsPower(benchNodes, rng.New(4)), 0)
	})
	windowRoundObservations = sync.OnceValue(func() []core.Observations { return captureRound(nil, 10) })
)

// RoundObservations returns the observation matrices the nodes of a 300-node
// Subset engine decided on in its third round (100 blocks, 8 neighbors
// each), captured through a wrapping core.Selector: one matrix per node, so
// a benchmark that rotates over them meets, as a round does, a matrix the
// branch predictor has not just seen. A loop over one uniform-random matrix,
// which these benchmarks used to run, reads about 3× faster than a round
// pays per call. Callers must not modify the matrices.
func RoundObservations() []core.Observations { return roundObservations() }

// PoolsRoundObservations is RoundObservations for an engine whose miners
// are drawn from the paper's pools setting, PoolsPower(0.1, 0.9): a round
// repeats most of its miners, and each matrix carries the list of its
// distinct rows that SubsetSelect scores. Callers must not modify the
// matrices.
func PoolsRoundObservations() []core.Observations { return poolsRoundObservations() }

// WindowRoundObservations is RoundObservations for an engine whose nodes
// score a 10-block observation window, as large simulations run: 10 blocks
// and 8 neighbors per matrix, whose 0.9-quantile reads the two largest
// minima. Callers must not modify the matrices.
func WindowRoundObservations() []core.Observations { return windowRoundObservations() }

// poolsPower is the pools setting's power over n nodes, 10% of them holding
// 90% of it, drawn from r.
func poolsPower(n int, r *rng.RNG) []float64 {
	power, _, err := hashpower.Pools(n, 0.1, 0.9, r)
	if err != nil {
		panic(err)
	}
	return power
}

// MicroVanillaScoring measures independent percentile scoring of one
// node's round (100 blocks, 8 neighbors), rotating over a round's matrices.
func MicroVanillaScoring(b *testing.B) {
	round := RoundObservations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.VanillaScores(round[i%len(round)], 0.9)
	}
}

// MicroSubsetScoring measures the greedy joint selection (§4.3) as a round
// pays for it: each call on the next node's matrix.
func MicroSubsetScoring(b *testing.B) { subsetScoring(b, RoundObservations()) }

// MicroSubsetScoringPools is MicroSubsetScoring over a pools round's
// matrices, which SubsetSelect scores by their distinct rows.
func MicroSubsetScoringPools(b *testing.B) { subsetScoring(b, PoolsRoundObservations()) }

// MicroSubsetScoringWindow10 is MicroSubsetScoring over a 10-block window's
// matrices, which the two-slot scan scores. It rotates over them, as the
// other two do, because the number it is for is what a round pays: the layer
// metric core.subset_select_w10_us loops over one matrix, whose comparisons
// the branch predictor learns. When the two-slot scan replaced the top-slots
// buffer at this size, that metric went from 2.3 µs to 1.2–1.9 µs at
// sim-scale-20k seeds 1 and 3, while this benchmark went from 2.6–3.7 µs to
// 1.4–1.7 µs (a shared 2-core x86-64 box, GOMAXPROCS=1).
func MicroSubsetScoringWindow10(b *testing.B) { subsetScoring(b, WindowRoundObservations()) }

// subsetScoring rotates SubsetSelect over a round's matrices.
func subsetScoring(b *testing.B, round []core.Observations) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SubsetSelect(round[i%len(round)], 6, 0.9)
	}
}

// MicroEngineRound measures one full protocol round (broadcasts + scoring
// + reconnection) on a 300-node network.
func MicroEngineRound(b *testing.B) {
	engine, err := subsetEngine(benchNodes, 3, 50, 0, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// MicroColdPrepare measures the first round an n-node engine opens: each
// op builds a fresh Subset engine with the timer stopped, then times its
// first BeginTimedRound, which builds the simulator from the table's rows
// and carves every node's round rows from slabs it sizes. Nothing in it is
// allocated per node, so allocs/op does not grow with n.
func MicroColdPrepare(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			engine, err := subsetEngine(n, 5, 20, 0, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := core.BeginTimedRound(engine, 20); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// roundBroadcastBlocks is how many blocks one op of the round-broadcast
// benchmarks floods.
const roundBroadcastBlocks = 100

// MicroRoundBroadcast measures the broadcast phase of a Subset round on an
// n-node engine: one TimedRound.BroadcastAll of 100 blocks from uniformly
// drawn miners, that is an arrival-only flood per distinct miner and the
// harvest of every node's observations from them. Each op opens a fresh
// round on the same topology with the timer stopped, so only BroadcastAll is
// timed and counted; its worker queues and arrival buffers are warm after
// the first op, so allocs/op is 0 at one worker.
func MicroRoundBroadcast(n int) func(b *testing.B) {
	r := rng.New(4)
	sources := make([]int, roundBroadcastBlocks)
	for i := range sources {
		sources[i] = r.IntN(n)
	}
	return roundBroadcast(n, sources)
}

// MicroRoundBroadcastPools is MicroRoundBroadcast with the blocks' miners
// drawn from the paper's pools setting, 10% of the nodes holding 90% of the
// power (perigee.PoolsPower(0.1, 0.9)): most miners produce several of the
// blocks, and BroadcastAll floods each of them once.
func MicroRoundBroadcastPools(n int) func(b *testing.B) {
	r := rng.New(4)
	sampler, err := hashpower.NewSampler(poolsPower(n, r))
	if err != nil {
		panic(err)
	}
	sources := make([]int, roundBroadcastBlocks)
	for i := range sources {
		sources[i] = sampler.Sample(r)
	}
	return roundBroadcast(n, sources)
}

// roundBroadcast is MicroRoundBroadcast's loop over a round of the given
// miners.
func roundBroadcast(n int, sources []int) func(b *testing.B) {
	return func(b *testing.B) {
		engine, err := subsetEngine(n, 3, roundBroadcastBlocks, 0, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		round := func() {
			tr, err := core.BeginTimedRound(engine, roundBroadcastBlocks)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			err = tr.BroadcastAll(sources, nil)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		round() // grow the queues, arrival buffers and observation rows
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	}
}

// MicroDeriveIndexed measures deriving one indexed stream: one allocation,
// the RNG holding its generator by value. The engine's per-node streams pay
// the same hashing and no allocation, since DeriveIndexedInto reseeds the
// deciding worker's stream in place.
func MicroDeriveIndexed(b *testing.B) {
	root := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root.DeriveIndexed("node", i)
	}
}

// WorkloadHour measures one simulated hour of the continuous-time
// blockchain workload on a 300-node network: ~1800 Poisson block arrivals
// at the default 2s interval, each broadcast through netsim, tracked in
// every node's longest-chain view, with a timed topology round every 200s
// of simulated time. One op is the whole run (engine construction
// included), so allocs/op is deterministic and gated in scripts/bench.sh.
func WorkloadHour(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine, err := subsetEngine(300, 5, 100, 0, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		trace, err := workload.NewPoisson(rng.New(5).Derive("trace"), engine.Power(), paper.BlockInterval)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := paper.RunWorkload(engine, trace, time.Hour, paper.BlockInterval)
		if err != nil {
			b.Fatal(err)
		}
		if rep.BlocksMined == 0 {
			b.Fatal("workload mined no blocks")
		}
	}
}

// MicroDurationPercentile measures the censored percentile primitive
// underlying all scoring.
func MicroDurationPercentile(b *testing.B) {
	r := rng.New(4)
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(r.IntN(1000)) * time.Millisecond
	}
	ds[7] = stats.InfDuration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.DurationPercentile(ds, 0.9)
	}
}

// MicroDurationPercentileOfMin measures the clipped form of the primitive,
// which each greedy step of Subset scoring calls once per candidate through
// a plan made once per node: the 0.9-quantile of n offsets, each clipped to
// the chosen set's (a third of which are still censored, so the clip takes
// either side).
func MicroDurationPercentileOfMin(n int) func(b *testing.B) {
	return func(b *testing.B) {
		r := rng.New(4)
		ds, limit := make([]time.Duration, n), make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(r.IntN(1000)) * time.Millisecond
			limit[i] = time.Duration(r.IntN(1000)) * time.Millisecond
			if i%3 == 0 {
				limit[i] = stats.InfDuration
			}
		}
		q := stats.NewQuantile(n, 0.9)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.OfMin(ds, limit)
		}
	}
}

// MicroDurationPercentileOfMinOrdered measures the ordered pass Subset
// scoring tries before that scan, as a greedy step sets it up: on each of a
// round's matrices the limit is the first neighbor's column, theta half its
// 0.9-quantile, the list built before the timer starts, and the candidate
// the second neighbor's column.
func MicroDurationPercentileOfMinOrdered(b *testing.B) {
	type step struct {
		q     stats.Quantile
		col   []time.Duration
		order []stats.OrderedLimit
		theta time.Duration
	}
	var steps []step
	for _, obs := range RoundObservations() {
		blocks := len(obs.Offsets)
		limit, col := make([]time.Duration, blocks), make([]time.Duration, blocks)
		for bi, row := range obs.Offsets {
			limit[bi], col[bi] = row[0], row[1]
		}
		st := step{q: stats.NewQuantile(blocks, 0.9), col: col, theta: stats.DurationPercentile(limit, 0.9) / 2}
		for bi, l := range limit {
			if l > st.theta {
				st.order = append(st.order, stats.OrderedLimit{Limit: l, Index: int32(bi)})
			}
		}
		slices.SortFunc(st.order, func(x, y stats.OrderedLimit) int { return cmp.Compare(y.Limit, x.Limit) })
		steps = append(steps, st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &steps[i%len(steps)]
		st.q.OfMinOrdered(st.col, st.order, st.theta)
	}
}

// WireInv is the announcement a live node sends per block per peer: one
// hash.
func WireInv() wire.Message {
	return &wire.Inv{Hashes: []chain.Hash{chain.NewGenesis("bench").Header.Hash()}}
}

// WireBlock1K is a block of the live benchmark's shape: four transactions
// of 256 bytes.
func WireBlock1K() wire.Message {
	txs := make([][]byte, 4)
	for i := range txs {
		txs[i] = bytes.Repeat([]byte{byte(i + 1)}, 256)
	}
	return &wire.Block{Block: chain.NewBlock(chain.NewGenesis("bench"), txs, time.UnixMilli(1), 1)}
}

// MicroWireFrame measures framing one message into a buffer that is reused,
// as a peer's write loop does: payload encoded in place behind its header,
// one SHA-256, no allocation.
func MicroWireFrame(m wire.Message) func(b *testing.B) {
	return func(b *testing.B) {
		buf, err := wire.AppendFrame(nil, m)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if buf, err = wire.AppendFrame(buf[:0], m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// loopReader serves the same bytes over and over, as much per Read as the
// caller has room for: a connection that always has the next burst ready.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], l.data[l.off:])
		n += c
		if l.off += c; l.off == len(l.data) {
			l.off = 0
		}
	}
	return n, nil
}

// MicroWireRead measures reading and decoding one frame through a
// wire.Reader from an endless stream of m's frames. The header and the
// payload scratch belong to the reader, so allocs/op is what the decoded
// message itself is made of.
func MicroWireRead(m wire.Message) func(b *testing.B) {
	return func(b *testing.B) {
		frame, err := wire.AppendFrame(nil, m)
		if err != nil {
			b.Fatal(err)
		}
		r := wire.NewReader(&loopReader{data: frame})
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Read(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// MicroRelayBlock1K measures what a relaying node's wire pays per block:
// reading one 1 KB BLOCK frame through a wire.Reader, which verifies its
// checksum and decodes it, then framing the decoded message again into a
// reused buffer, as a node serves it, on the checksum the reader verified.
// One SHA-256 of the payload in all; allocs/op is the decoded block's.
func MicroRelayBlock1K(b *testing.B) {
	frame, err := wire.AppendFrame(nil, WireBlock1K())
	if err != nil {
		b.Fatal(err)
	}
	r := wire.NewReader(&loopReader{data: frame})
	relay := func(buf []byte) []byte {
		m, err := r.Read()
		if err != nil {
			b.Fatal(err)
		}
		out, err := wire.AppendFrame(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		return out
	}
	buf := relay(nil)
	if !bytes.Equal(buf, frame) {
		b.Fatal("the relayed frame differs from the frame read")
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = relay(buf)
	}
}

// MicroStoreAdd measures what a live node's store pays per received block:
// chain.Store.Add of a block of the live benchmark's shape on top of a chain
// 10 000 blocks deep, so the body ring is turning over and the index and its
// links are past their first growths. The blocks are linked before the timer
// starts and share one transaction list; allocs/op is then zero: CheckBlock
// hashes the Merkle tree on the stack, the index, the links and the ring
// allocate nothing per block, and Add's result names no unstashed block.
func MicroStoreAdd(b *testing.B) {
	const depth = 10_000
	genesis := chain.NewGenesis("bench")
	store, err := chain.NewStore(genesis)
	if err != nil {
		b.Fatal(err)
	}
	txs := WireBlock1K().(*wire.Block).Block.Txs
	root := chain.MerkleRoot(txs)
	blocks := make([]chain.Block, depth+b.N)
	hashes := make([]chain.Hash, len(blocks))
	prev := genesis.Header.Hash()
	for i := range blocks {
		blocks[i] = chain.Block{
			Header: chain.Header{Version: 1, Height: uint64(i + 1), PrevHash: prev, TxRoot: root, Nonce: uint64(i)},
			Txs:    txs,
		}
		hashes[i] = blocks[i].Header.Hash()
		prev = hashes[i]
	}
	for i := 0; i < depth; i++ {
		if _, err := store.Add(&blocks[i], hashes[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := depth; i < len(blocks); i++ {
		if _, err := store.Add(&blocks[i], hashes[i]); err != nil {
			b.Fatal(err)
		}
	}
}
