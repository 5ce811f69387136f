package perigee

// The benchmark harness regenerates every figure of the paper's evaluation
// (DESIGN.md §3 maps figures to bench targets). Figure benches print the
// reproduced series via b.Log on their first iteration — run with
//
//	go test -bench=. -benchmem -benchtime=1x
//
// for a full reproduction pass, or -bench=Micro for the hot-path
// micro-benchmarks only.

import (
	"sync"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/bench"
	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/experiments"
	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/topology"
)

// benchFigureOptions is the figure-bench scale: large enough that every
// qualitative result of the paper holds, small enough for a laptop pass.
// Workers = 0 runs trials and broadcasts on all cores; results are
// identical to a -workers=1 pass.
func benchFigureOptions() experiments.Options {
	opt := experiments.ShortOptions()
	opt.Rounds = 10
	opt.Workers = 0
	return opt
}

// benchAblationOptions keeps ablation sweeps (many engine runs per
// iteration) affordable.
func benchAblationOptions() experiments.Options {
	opt := experiments.ShortOptions()
	opt.Nodes = 150
	opt.Rounds = 6
	opt.RoundBlocks = 30
	return opt
}

var benchRendered sync.Map

func benchExperiment(b *testing.B, id string, opt experiments.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, opt)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := benchRendered.LoadOrStore(id, true); !done {
			b.Logf("\n%s", res.Render())
		}
	}
}

// BenchmarkFigure1Stretch regenerates Figure 1: path stretch of random vs
// geometric graphs on embedded points.
func BenchmarkFigure1Stretch(b *testing.B) { benchExperiment(b, "figure1", benchFigureOptions()) }

// BenchmarkFigure3a regenerates Figure 3(a): all seven algorithms under
// uniform hash power.
func BenchmarkFigure3a(b *testing.B) { benchExperiment(b, "figure3a", benchFigureOptions()) }

// BenchmarkFigure3b regenerates Figure 3(b): exponential hash power.
func BenchmarkFigure3b(b *testing.B) { benchExperiment(b, "figure3b", benchFigureOptions()) }

// BenchmarkFigure4a regenerates Figure 4(a): the validation-delay sweep.
func BenchmarkFigure4a(b *testing.B) { benchExperiment(b, "figure4a", benchFigureOptions()) }

// BenchmarkFigure4b regenerates Figure 4(b): mining pools with fast links.
func BenchmarkFigure4b(b *testing.B) { benchExperiment(b, "figure4b", benchFigureOptions()) }

// BenchmarkFigure4c regenerates Figure 4(c): the embedded relay tree.
func BenchmarkFigure4c(b *testing.B) { benchExperiment(b, "figure4c", benchFigureOptions()) }

// BenchmarkFigure5Histogram regenerates Figure 5: edge-latency histograms
// of the converged topologies.
func BenchmarkFigure5Histogram(b *testing.B) { benchExperiment(b, "figure5", benchFigureOptions()) }

// BenchmarkTheorem1 validates Theorem 1 empirically: random-graph stretch
// grows with n.
func BenchmarkTheorem1(b *testing.B) { benchExperiment(b, "theorem1", benchFigureOptions()) }

// BenchmarkTheorem2 validates Theorem 2 empirically: geometric-graph
// stretch is constant in n.
func BenchmarkTheorem2(b *testing.B) { benchExperiment(b, "theorem2", benchFigureOptions()) }

// BenchmarkAblationExploration sweeps the exploration budget e_v.
func BenchmarkAblationExploration(b *testing.B) {
	benchExperiment(b, "ablation-exploration", benchAblationOptions())
}

// BenchmarkAblationPercentile sweeps the scoring percentile.
func BenchmarkAblationPercentile(b *testing.B) {
	benchExperiment(b, "ablation-percentile", benchAblationOptions())
}

// BenchmarkAblationRoundLength sweeps |B| at a fixed block budget.
func BenchmarkAblationRoundLength(b *testing.B) {
	benchExperiment(b, "ablation-roundlength", benchAblationOptions())
}

// BenchmarkAblationUCBConstant sweeps the UCB confidence constant.
func BenchmarkAblationUCBConstant(b *testing.B) {
	benchExperiment(b, "ablation-ucb-constant", benchAblationOptions())
}

// BenchmarkAblationValidationModel compares homogeneous vs heterogeneous
// validation delays.
func BenchmarkAblationValidationModel(b *testing.B) {
	benchExperiment(b, "ablation-validation-model", benchAblationOptions())
}

// BenchmarkExtensionFreeride measures the incentive experiment: silent
// free-riders are punished with later block reception.
func BenchmarkExtensionFreeride(b *testing.B) {
	benchExperiment(b, "freeride", benchAblationOptions())
}

// BenchmarkExtensionChurn measures Perigee under 5%-per-round membership
// churn.
func BenchmarkExtensionChurn(b *testing.B) {
	benchExperiment(b, "churn", benchAblationOptions())
}

// BenchmarkExtensionBandwidth measures the upload-serialization scenario.
func BenchmarkExtensionBandwidth(b *testing.B) {
	benchExperiment(b, "bandwidth", benchAblationOptions())
}

// BenchmarkExtensionEclipse measures neighborhood capture by fast
// adversaries.
func BenchmarkExtensionEclipse(b *testing.B) {
	benchExperiment(b, "eclipse", benchAblationOptions())
}

// BenchmarkExtensionConvergence measures the §5.2 convergence
// trajectories (90% coverage converges; 50% is not monotone).
func BenchmarkExtensionConvergence(b *testing.B) {
	benchExperiment(b, "convergence", benchAblationOptions())
}

// --- Micro-benchmarks of the hot paths -----------------------------------
//
// The bodies live in internal/bench; the wrappers below are the stable
// `-bench=Micro` go-test entry points scripts/bench.sh gates on.

// BenchmarkMicroBroadcast1000 measures one block broadcast
// over a 1000-node network (the inner loop of every experiment). The CI
// benchmark job fails if this reports any steady-state allocations.
func BenchmarkMicroBroadcast1000(b *testing.B) { bench.MicroBroadcast(1000, latency.Auto)(b) }

// BenchmarkMicroBroadcast10000 is the production-scale target: one
// broadcast over a 10k-node network (the scale OverChain-style overlay
// evaluations run at).
func BenchmarkMicroBroadcast10000(b *testing.B) { bench.MicroBroadcast(10000, latency.Auto)(b) }

// BenchmarkMicroBroadcastStreaming10000 is the same broadcast with the
// streaming latency mode forced: no per-edge delay array, two SHA-256 per
// directed edge per flood. It keeps the memory mode's cost and its
// zero-allocation contract measured now that Auto no longer selects it at
// any size benchmarked here.
func BenchmarkMicroBroadcastStreaming10000(b *testing.B) {
	bench.MicroBroadcast(10000, latency.Streaming)(b)
}

// BenchmarkMicroReconfigure1000 measures one Simulator.Reconfigure across a
// Perigee-shaped rewire (every node drops two links and dials two) at the
// paper's n=1000: the surviving edges' delays are carried, the new ones
// hashed.
func BenchmarkMicroReconfigure1000(b *testing.B) { bench.MicroReconfigure(1000)(b) }

// BenchmarkMicroTopologyRandom20000 measures one build of the paper's random
// topology (§3.1) at the size of the sim-scale-20k workload; scripts/bench.sh
// holds its B/op, linear in n, and its allocs/op, a handful per build.
func BenchmarkMicroTopologyRandom20000(b *testing.B) { bench.MicroTopologyRandom(20000)(b) }

// BenchmarkMicroTopologyRandom1000 is the same build at the paper's
// n = 1000, the topology perigee.New builds.
func BenchmarkMicroTopologyRandom1000(b *testing.B) { bench.MicroTopologyRandom(1000)(b) }

// BenchmarkMicroTableRewire1000 measures the connection table's part of a
// round: every node drops two links and dials two, one call at a time, then
// the undirected adjacency is rebuilt into the previous round's buffer.
func BenchmarkMicroTableRewire1000(b *testing.B) { bench.MicroTableRewire(1000)(b) }

// BenchmarkMicroTableEdit1000 is MicroTableRewire1000 with the rewire run
// as one table edit (Begin, the drops and dials, Commit), as a round runs it.
func BenchmarkMicroTableEdit1000(b *testing.B) { bench.MicroTableEdit(1000)(b) }

// BenchmarkMicroBroadcast100000 is the million-node-track target: one
// broadcast over a 100k-node network, reading precomputed edge delays like
// every size below latency.StreamingAutoThreshold. Run it with a small
// -benchtime (e.g. -benchtime=3x); a single op is a full 100k-node flood.
func BenchmarkMicroBroadcast100000(b *testing.B) { bench.MicroBroadcast(100000, latency.Auto)(b) }

// BenchmarkMicroAnalyticArrival1000 measures the arrival-only flood used
// by the λ_v metric, with its queue taken from a pool.
func BenchmarkMicroAnalyticArrival1000(b *testing.B) { bench.MicroAnalyticArrival(1000)(b) }

// BenchmarkMicroColdPrepare2000 measures a fresh 2,000-node engine's first
// BeginTimedRound: the simulator built from the table's rows and every
// node's round rows carved from slabs, a fixed number of allocations at
// any n.
func BenchmarkMicroColdPrepare2000(b *testing.B) { bench.MicroColdPrepare(2000)(b) }

// BenchmarkMicroRoundBroadcast1000 measures the path a round's blocks take:
// one TimedRound.BroadcastAll of 100 blocks on a 1000-node engine, i.e.
// an arrival-only flood per distinct miner plus the harvest of every node's
// observations.
// scripts/bench.sh holds it at 0 allocs/op.
func BenchmarkMicroRoundBroadcast1000(b *testing.B) { bench.MicroRoundBroadcast(1000)(b) }

// BenchmarkMicroRoundBroadcastPools300 is the same round on the 300-node
// mining network of the pools setting, PoolsPower(0.1, 0.9): its 100 blocks
// come from a few miners, each flooded once. scripts/bench.sh holds it at 0
// allocs/op.
func BenchmarkMicroRoundBroadcastPools300(b *testing.B) { bench.MicroRoundBroadcastPools(300)(b) }

// BenchmarkMicroDelayToFraction measures the weighted coverage metric.
func BenchmarkMicroDelayToFraction(b *testing.B) { bench.MicroDelayToFraction(b) }

// BenchmarkMicroVanillaScoring measures independent percentile scoring of
// one node's round (100 blocks, 8 neighbors), each op on the next of the
// matrices bench.RoundObservations captured from an engine round.
func BenchmarkMicroVanillaScoring(b *testing.B) { bench.MicroVanillaScoring(b) }

// BenchmarkMicroSubsetScoring measures the greedy joint selection (§4.3),
// rotating over the same matrices: a loop over one matrix trains the branch
// predictor and reads about a third of what a round pays per call.
func BenchmarkMicroSubsetScoring(b *testing.B) { bench.MicroSubsetScoring(b) }

// BenchmarkMicroSubsetScoringPools is the same selection over the matrices
// of a round whose miners are drawn from the pools setting,
// PoolsPower(0.1, 0.9): most blocks repeat a miner, and SubsetSelect scores
// each distinct row once with its multiplicity. scripts/bench.sh holds it,
// like MicroSubsetScoring, at 1 alloc/op.
func BenchmarkMicroSubsetScoringPools(b *testing.B) { bench.MicroSubsetScoringPools(b) }

// BenchmarkMicroSubsetScoringWindow10 is the same selection over the
// matrices of a round whose nodes score a 10-block observation window, as
// sim-scale runs do: the 0.9-quantile reads the two largest minima, which
// the kernel keeps without a data-dependent branch. scripts/bench.sh holds
// it at 1 alloc/op too.
func BenchmarkMicroSubsetScoringWindow10(b *testing.B) { bench.MicroSubsetScoringWindow10(b) }

// BenchmarkWorkloadHour measures one simulated hour of the continuous-time
// blockchain workload (~1800 Poisson arrivals, timed topology rounds,
// per-node chain views) on a 300-node network; scripts/bench.sh gates its
// allocs/op.
func BenchmarkWorkloadHour(b *testing.B) { bench.WorkloadHour(b) }

// BenchmarkMicroDeriveIndexed measures deriving one indexed RNG stream;
// scripts/bench.sh holds it at 1 alloc/op.
func BenchmarkMicroDeriveIndexed(b *testing.B) { bench.MicroDeriveIndexed(b) }

// BenchmarkMicroEngineRound measures one full protocol round (broadcasts +
// scoring + reconnection) on a 300-node network.
func BenchmarkMicroEngineRound(b *testing.B) { bench.MicroEngineRound(b) }

// benchEngine builds a Subset engine at the given scale and worker count.
func benchEngine(b *testing.B, n, workers int) *core.Engine {
	b.Helper()
	root := rng.New(9)
	u, err := geo.SampleUniverse(n, root.Derive("universe"))
	if err != nil {
		b.Fatal(err)
	}
	lat, err := latency.NewGeographic(u, root.Derive("latency"))
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := topology.Random(n, 8, 20, root.Derive("topology"))
	if err != nil {
		b.Fatal(err)
	}
	forward := make([]time.Duration, n)
	for i := range forward {
		forward[i] = 50 * time.Millisecond
	}
	power := make([]float64, n)
	for i := range power {
		power[i] = 1.0 / float64(n)
	}
	params := core.DefaultParams(core.Subset)
	params.RoundBlocks = 100
	engine, err := core.NewEngine(core.Config{
		Method: core.Subset, Params: params, Table: tbl,
		Latency: lat, Forward: forward, Power: power,
		Rand: root.Derive("engine"), Workers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	return engine
}

// BenchmarkEngineRoundSequential measures one 100-block protocol round on a
// 500-node network with a single worker — the pre-parallelism baseline.
func BenchmarkEngineRoundSequential(b *testing.B) {
	engine := benchEngine(b, 500, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRoundParallel is the same round fanned out over all cores;
// compare against BenchmarkEngineRoundSequential for the parallel speedup
// (the reports and resulting topology are identical by construction).
func BenchmarkEngineRoundParallel(b *testing.B) {
	engine := benchEngine(b, 500, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroDurationPercentile measures the censored percentile
// primitive underlying all scoring.
func BenchmarkMicroDurationPercentile(b *testing.B) { bench.MicroDurationPercentile(b) }

// BenchmarkMicroDurationPercentileOfMin* measure its clipped form, Subset
// scoring's per-candidate call, at a full round's 100 blocks and at a
// 10-block observation window.
func BenchmarkMicroDurationPercentileOfMin100(b *testing.B) {
	bench.MicroDurationPercentileOfMin(100)(b)
}
func BenchmarkMicroDurationPercentileOfMin10(b *testing.B) {
	bench.MicroDurationPercentileOfMin(10)(b)
}

// BenchmarkMicroDurationPercentileOfMinOrdered measures the ordered pass
// that answers most of those calls from the head of a sorted limit list,
// rotating over one round's matrices.
func BenchmarkMicroDurationPercentileOfMinOrdered(b *testing.B) {
	bench.MicroDurationPercentileOfMinOrdered(b)
}

// BenchmarkMicroWireFrame* measure what a live peer's write loop pays per
// message: the frame appended to a reused buffer. scripts/bench.sh holds
// both at 0 allocs/op.
func BenchmarkMicroWireFrameInv(b *testing.B)     { bench.MicroWireFrame(bench.WireInv())(b) }
func BenchmarkMicroWireFrameBlock1K(b *testing.B) { bench.MicroWireFrame(bench.WireBlock1K())(b) }

// BenchmarkMicroWireRead* measure what its read loop pays per message
// through the buffered wire.Reader; scripts/bench.sh holds allocs/op at the
// decoded message's own (none for a one-hash Inv, which is decoded into the
// reader's scratch; a wire.Block with its block in one object, the
// transaction list and one body buffer).
func BenchmarkMicroWireReadInv(b *testing.B)     { bench.MicroWireRead(bench.WireInv())(b) }
func BenchmarkMicroWireReadBlock1K(b *testing.B) { bench.MicroWireRead(bench.WireBlock1K())(b) }

// BenchmarkMicroRelayBlock1K measures a relaying node's wire per block: the
// read above, then the decoded message framed again on the checksum the
// reader verified. scripts/bench.sh holds allocs/op at the read's.
func BenchmarkMicroRelayBlock1K(b *testing.B) { bench.MicroRelayBlock1K(b) }

// BenchmarkMicroStoreAdd measures chain.Store.Add of a 1 KB block on a
// 10k-deep chain, the store's share of a live relay hop. scripts/bench.sh
// holds allocs/op at zero: validation hashes the Merkle tree on the stack,
// and the index, the tree and the body ring allocate nothing per block.
func BenchmarkMicroStoreAdd(b *testing.B) { bench.MicroStoreAdd(b) }
