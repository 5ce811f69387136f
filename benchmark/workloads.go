package main

import (
	"slices"
	"time"

	perigee "github.com/perigee-net/perigee"
	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/topology"
	"github.com/perigee-net/perigee/internal/workload"
)

// runConfig is one invocation: the seed the workload's inputs come from, its
// size, and the span recorder (nil with tracing off). A workload's size is
// fixed, so that a run's work never depends on the clock and the simulated
// metrics of two runs with one seed are equal; on the 2-core box of
// baseline.json a whole run takes 20 to 25 s, BENCHMARK.json's run_seconds.
type runConfig struct {
	seed  uint64
	smoke bool
	rec   *recorder
}

// benchWorkload is one entry of BENCHMARK.json's workloads.
type benchWorkload struct {
	name string
	run  func(cfg runConfig, o *outcome) error
}

var workloads = []benchWorkload{
	{"sim-converge-1k", runSimConverge},
	{"sim-scale-20k", runSimScale},
	{"mining-day-300", runMiningDay},
	{"live-line-4", runLiveLine},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// roundSizes sizes the two round-driven sim workloads.
type roundSizes struct {
	spec        simSpec
	rounds      int        // batches: one round each
	roundBlocks int        // broadcasts simulated per round
	builds      int        // set-ups timed
	landmarks   int        // λ sources; 0 evaluates every node
	gain        [2]float64 // range lambda90_gain_pct must fall in, ends excluded
	layers      simLayerSizes
	// Traced runs only: rounds of the Workers:1 engine, and rounds of the
	// untraced reference engine.
	serialRounds, referenceRounds int
}

// anyGain asks only that the topology learned something.
var anyGain = [2]float64{0, 100}

func convergeSizes(cfg runConfig) roundSizes {
	if cfg.smoke {
		return roundSizes{spec: simSpec{n: 200}, rounds: 3, roundBlocks: 100, builds: 2, gain: anyGain,
			layers: simLayerSizes{broadcasts: 20, analytic: 20, calls: 50}, serialRounds: 2, referenceRounds: 2}
	}
	// The paper's 33%: seeds 1 to 20 gain 31.9 to 34.1.
	return roundSizes{spec: simSpec{n: 1000}, rounds: 100, roundBlocks: 100, builds: 50, gain: [2]float64{30, 36},
		layers: simLayerSizes{broadcasts: 200, analytic: 200, calls: 2000}, serialRounds: 5, referenceRounds: 10}
}

func scaleSizes(cfg runConfig) roundSizes {
	if cfg.smoke {
		// Small, but forced onto the streaming latency path n=20000 takes.
		return roundSizes{spec: simSpec{n: 2000, window: 10, mode: latency.Streaming}, rounds: 1, roundBlocks: 10,
			builds: 1, landmarks: 8, gain: anyGain, layers: simLayerSizes{broadcasts: 4, analytic: 4, calls: 50}, serialRounds: 1, referenceRounds: 1}
	}
	// Ten rounds on a 10-block window: seeds 1 to 5 gain 21.8 to 24.0.
	return roundSizes{spec: simSpec{n: 20000, window: 10}, rounds: 10, roundBlocks: 10,
		builds: 2, landmarks: 48, gain: [2]float64{15, 100}, layers: simLayerSizes{broadcasts: 4, analytic: 8, calls: 2000}, serialRounds: 1, referenceRounds: 1}
}

// runSimConverge is the paper's headline experiment through the public API.
func runSimConverge(cfg runConfig, o *outcome) error {
	size := convergeSizes(cfg)
	if cfg.rec != nil {
		return tracedRounds(cfg, o, size)
	}
	net, setup, err := timeSetup(size.builds, func() (*perigee.Network, error) {
		return perigee.New(size.spec.n, perigee.WithSeed(cfg.seed))
	})
	if err != nil {
		return err
	}
	o.set("setup_s", setup)
	delays := func() ([]time.Duration, error) { return net.BroadcastDelays(powerShare) }

	start, err := evalLambda(o, "starting", delays)
	if err != nil {
		return err
	}
	br, err := runBatches(nil, size.rounds, func(int, int) (int, error) {
		s, err := net.Step()
		return s.Blocks, err
	})
	if err != nil {
		return err
	}
	final, err := evalLambda(o, "final", delays)
	if err != nil {
		return err
	}
	checkRoundBlocks(o, br, size)
	br.setEndToEnd(o)
	reportLambda(o, start, final, size.gain)
	o.attempted = size.rounds * size.roundBlocks
	o.failed = o.attempted - br.blocks
	return nil
}

// runSimScale is the stack the registered scale scenario builds, driven
// through internal/core because the public Network cannot evaluate λ over
// landmarks. A round simulates only the observation window's broadcasts, so
// those are the blocks counted.
func runSimScale(cfg runConfig, o *outcome) error {
	size := scaleSizes(cfg)
	if cfg.rec != nil {
		return tracedRounds(cfg, o, size)
	}
	e, setup, err := timeSetup(size.builds, func() (*core.Engine, error) {
		m, err := buildModels(nil, noSpan, size.spec, cfg.seed)
		if err != nil {
			return nil, err
		}
		return newEngine(nil, noSpan, size.spec, m, m.table, cfg.seed, 0)
	})
	if err != nil {
		return err
	}
	o.set("setup_s", setup)
	marks := landmarks(cfg.seed, size.spec.n, size.landmarks)

	// No λ pass on the starting topology here: at 80 ms a source it would
	// cost what two rounds do, and only the traced run reports the gain.
	br, err := runBatches(nil, size.rounds, func(int, int) (int, error) {
		if _, err := e.Step(); err != nil {
			return 0, err
		}
		return size.roundBlocks, nil
	})
	if err != nil {
		return err
	}
	final, err := evalLambda(o, "final", func() ([]time.Duration, error) { return e.Delays(powerShare, marks) })
	if err != nil {
		return err
	}
	o.check(e.Round() == size.rounds, "engine completed %d rounds, want %d", e.Round(), size.rounds)
	br.setEndToEnd(o)
	o.set("propagation_ms_p50", final.p50)
	o.note("lambda90_ms_p50 final=%s lambda90_ms_p90 final=%s eval_ms_per_source=%s (simulated ms; %d landmark sources)",
		formatValue(final.p50), formatValue(final.p90), formatValue(final.msPerSource()), final.sources)
	o.attempted = size.rounds * size.roundBlocks
	o.failed = o.attempted - br.blocks
	return nil
}

func checkRoundBlocks(o *outcome, br batchRun, size roundSizes) {
	want := size.rounds * size.roundBlocks
	o.check(br.blocks == want, "%d blocks in %d batches, want %d", br.blocks, size.rounds, want)
}

const followReps = 5

// tracedRounds is the traced run of the two round-driven sim workloads: the
// same n, rounds and blocks as the untraced run, with every round driven
// from outside as three spans and the layers below a round timed afterwards.
func tracedRounds(cfg runConfig, o *outcome, size roundSizes) error {
	rec, spec := cfg.rec, size.spec

	setup := rec.begin("setup", noSpan, -1)
	m, err := buildModels(rec, setup, spec, cfg.seed)
	if err != nil {
		return err
	}
	// The engines below each own a table; the clones are taken before any
	// of them moves a connection.
	serialTable, referenceTable := m.table.Clone(), m.table.Clone()
	e, err := newEngine(rec, setup, spec, m, m.table, cfg.seed, 0)
	if err != nil {
		return err
	}
	rec.end(setup)
	own, err := newOwnSimulator(rec, noSpan, spec, m)
	if err != nil {
		return err
	}
	setSetupLayers(o, rec)
	o.set("topology.random_alloc_mb", float64(m.randomAllocBytes)/(1<<20))

	var marks []int
	if size.landmarks > 0 {
		marks = landmarks(cfg.seed, spec.n, size.landmarks)
	}
	delays := func() ([]time.Duration, error) {
		id := rec.begin("core.Engine.Delays", noSpan, -1)
		defer rec.end(id)
		return e.Delays(powerShare, marks)
	}
	start, err := evalLambda(o, "starting", delays)
	if err != nil {
		return err
	}

	// Block sources are the benchmark's, drawn up front so the Workers:1
	// engine can replay the first rounds' exactly.
	srcRand := benchRand(cfg.seed, purposeSources)
	sources := make([][]int, size.rounds)
	for i := range sources {
		sources[i] = make([]int, size.roundBlocks)
		uniformSources(srcRand, sources[i], spec.n)
	}

	var totals roundTotals
	var lastRoundAllocs uint64
	br, err := runBatches(rec, size.rounds, func(batch, span int) (int, error) {
		var rep core.RoundReport
		round := func() error {
			var err error
			rep, err = tracedRound(rec, span, batch, e, sources[batch], nil)
			return err
		}
		var err error
		if batch == size.rounds-1 {
			lastRoundAllocs, _, err = allocsDuring(round)
		} else {
			err = round()
		}
		if err != nil {
			return 0, err
		}
		totals.add(rep)
		return rep.Blocks, nil
	})
	if err != nil {
		return err
	}
	// The benchmark's simulator moves to the final topology after the
	// batches, so its two calls do not count as round time. Both cost the
	// same on every call: neither looks at what changed.
	for rep := 0; rep < followReps; rep++ {
		if err := own.follow(rec, e.Table()); err != nil {
			return err
		}
	}
	final, err := evalLambda(o, "final", delays)
	if err != nil {
		return err
	}

	checkRoundBlocks(o, br, size)
	o.check(e.Round() == size.rounds, "engine completed %d rounds, want %d", e.Round(), size.rounds)
	setRoundLayers(o, rec, totals)
	o.set("core.round_allocs", float64(lastRoundAllocs))
	o.set("alloc_kb_per_block", br.allocKBPerBlock())
	setLambdaLayers(o, start, final, size.gain)
	o.set("bench.batch_ms_p90", quantile(millis(br.wall), 0.9))
	o.note("traced run: n=%d rounds=%d blocks=%d lambda90_ms_p50 final=%s (benchmark-sampled sources)",
		spec.n, totals.rounds, br.blocks, formatValue(final.p50))
	o.attempted = size.rounds * size.roundBlocks
	o.failed = o.attempted - br.blocks

	if err := simLayers(o, cfg.seed, spec, size.layers, m, own); err != nil {
		return err
	}

	// parallel.speedup_x: the same first rounds, same sources, on one worker.
	serial, err := newEngine(nil, noSpan, spec, m, serialTable, cfg.seed, 1)
	if err != nil {
		return err
	}
	serialRec := newRecorder()
	serialRounds := min(size.serialRounds, size.rounds)
	for r := 0; r < serialRounds; r++ {
		if _, err := tracedRound(serialRec, noSpan, r, serial, sources[r], nil); err != nil {
			return err
		}
	}
	one := serialRec.durations("core.TimedRound.BroadcastAll")
	many := rec.durations("core.TimedRound.BroadcastAll")[:serialRounds]
	o.set("parallel.speedup_x", quantile(millis(one), 0.5)/quantile(millis(many), 0.5))

	// bench.trace_overhead_pct: the untraced driver (Engine.Step) over the
	// first rounds of an identical engine, against the traced rounds above.
	reference, err := newEngine(nil, noSpan, spec, m, referenceTable, cfg.seed, 0)
	if err != nil {
		return err
	}
	refRounds := min(size.referenceRounds, size.rounds)
	ref, err := runBatches(nil, refRounds, func(int, int) (int, error) {
		_, err := reference.Step()
		return size.roundBlocks, err
	})
	if err != nil {
		return err
	}
	setTraceOverhead(o, ref, br)
	return nil
}

// setTraceOverhead compares an untraced reference over the first batches
// with the same batches of the traced run.
func setTraceOverhead(o *outcome, reference, traced batchRun) {
	n := len(reference.wall)
	tracedRate := float64(traced.blocks) * float64(n) / float64(len(traced.wall)) / sum(traced.wall[:n]).Seconds()
	o.set("bench.trace_overhead_pct", (reference.blocksPerSecond()-tracedRate)/reference.blocksPerSecond()*100)
}

// miningSizes sizes the continuous-time workload.
type miningSizes struct {
	spec   simSpec
	hours  int // batches: one simulated hour each
	builds int
	gain   [2]float64 // range lambda90_gain_pct must fall in, ends excluded
	layers simLayerSizes
	// Traced runs only: hours replayed through bare timed rounds, and hours
	// of the untraced reference network.
	replayHours, referenceHours int
}

const miningBlockInterval = 2 * time.Second

func miningDaySizes(cfg runConfig) miningSizes {
	if cfg.smoke {
		return miningSizes{spec: simSpec{n: 100, pools: true}, hours: 1, builds: 2, gain: anyGain,
			layers: simLayerSizes{broadcasts: 20, analytic: 20, calls: 50}, replayHours: 1, referenceHours: 1}
	}
	// 360 rounds: seeds 1 to 10 gain 34.2 to 37.8.
	return miningSizes{spec: simSpec{n: 300, pools: true}, hours: 20, builds: 200, gain: [2]float64{28, 100},
		layers: simLayerSizes{broadcasts: 200, analytic: 200, calls: 2000}, replayHours: 2, referenceHours: 2}
}

func newMiningNetwork(size miningSizes, seed uint64) (*perigee.Network, error) {
	return perigee.New(size.spec.n,
		perigee.WithSeed(seed),
		perigee.WithPower(perigee.PoolsPower(0.1, 0.9)),
		perigee.WithBlockInterval(miningBlockInterval))
}

// dayReport sums the hourly workload reports.
type dayReport struct {
	mined, canonical, stale, rounds, forks, reorgs, maxDepth int
}

func (d *dayReport) add(o *outcome, hour int, rep *perigee.WorkloadReport) {
	d.mined += rep.BlocksMined
	d.canonical += rep.CanonicalBlocks
	d.stale += rep.StaleBlocks
	d.rounds += rep.Rounds
	d.forks += rep.ForkEvents
	d.reorgs += rep.Reorgs
	d.maxDepth = max(d.maxDepth, rep.MaxReorgDepth)
	o.check(rep.BlocksMined == rep.CanonicalBlocks+rep.StaleBlocks,
		"hour %d: BlocksMined %d != CanonicalBlocks %d + StaleBlocks %d",
		hour, rep.BlocksMined, rep.CanonicalBlocks, rep.StaleBlocks)
}

func (d *dayReport) staleRatePct() float64 { return float64(d.stale) / float64(d.mined) * 100 }

// runMiningDay is the continuous-time workload engine through the public
// API: Poisson mining by pools, a topology round every 200 simulated
// seconds, one simulated hour per batch.
func runMiningDay(cfg runConfig, o *outcome) error {
	size := miningDaySizes(cfg)
	if cfg.rec != nil {
		return tracedMiningDay(cfg, o, size)
	}
	net, setup, err := timeSetup(size.builds, func() (*perigee.Network, error) {
		return newMiningNetwork(size, cfg.seed)
	})
	if err != nil {
		return err
	}
	o.set("setup_s", setup)
	delays := func() ([]time.Duration, error) { return net.BroadcastDelays(powerShare) }

	start, err := evalLambda(o, "starting", delays)
	if err != nil {
		return err
	}
	var day dayReport
	br, err := runBatches(nil, size.hours, func(hour, _ int) (int, error) {
		rep, err := net.RunWorkload(time.Hour)
		if err != nil {
			return 0, err
		}
		day.add(o, hour, rep)
		return rep.BlocksMined, nil
	})
	if err != nil {
		return err
	}
	final, err := evalLambda(o, "final", delays)
	if err != nil {
		return err
	}
	br.setEndToEnd(o)
	reportLambda(o, start, final, size.gain)
	o.note("stale_rate_pct=%s blocks_mined=%d stale=%d rounds=%d fork_events=%d reorgs=%d",
		formatValue(day.staleRatePct()), day.mined, day.stale, day.rounds, day.forks, day.reorgs)
	o.attempted = day.mined
	o.failed = day.mined - day.canonical - day.stale
	return nil
}

// tracedMiningDay is the traced run of the continuous-time workload: every
// hour's arrivals are materialized by the benchmark and run through
// workload.Run, and the first hours are replayed on a second, identical
// engine through bare timed rounds, which splits those hours into rounds and
// leaves the workload engine's own share (trace, chain views, delivery
// replay) as the difference.
func tracedMiningDay(cfg runConfig, o *outcome, size miningSizes) error {
	rec, spec := cfg.rec, size.spec
	roundInterval := time.Duration(core.DefaultParams(core.Subset).RoundBlocks) * miningBlockInterval

	setup := rec.begin("setup", noSpan, -1)
	m, err := buildModels(rec, setup, spec, cfg.seed)
	if err != nil {
		return err
	}
	replayTable := m.table.Clone()
	e, err := newEngine(rec, setup, spec, m, m.table, cfg.seed, 0)
	if err != nil {
		return err
	}
	rec.end(setup)
	own, err := newOwnSimulator(rec, noSpan, spec, m)
	if err != nil {
		return err
	}
	setSetupLayers(o, rec)
	o.set("topology.random_alloc_mb", float64(m.randomAllocBytes)/(1<<20))

	delays := func() ([]time.Duration, error) {
		id := rec.begin("core.Engine.Delays", noSpan, -1)
		defer rec.end(id)
		return e.Delays(powerShare, nil)
	}
	start, err := evalLambda(o, "starting", delays)
	if err != nil {
		return err
	}

	seeds := benchRand(cfg.seed, purposeSources)
	replayHours := min(size.replayHours, size.hours)
	traces := make([]*workload.TraceFile, replayHours)
	var afterReplayHours *topology.Table
	var day dayReport
	arrivals := 0
	br, err := runBatches(rec, size.hours, func(hour, span int) (int, error) {
		id := rec.begin("workload.NewPoisson+Materialize", span, hour)
		trace, err := workload.NewPoisson(rng.New(seeds.Uint64()), m.power, miningBlockInterval)
		if err != nil {
			return 0, err
		}
		tf, err := workload.Materialize(trace, time.Hour, spec.n)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		arrivals += len(tf.Arrivals)

		id = rec.begin("workload.Run", span, hour)
		rep, err := workload.Run(workload.Config{Engine: e, Trace: tf.Trace(), Duration: time.Hour, RoundInterval: roundInterval})
		rec.end(id)
		if err != nil {
			return 0, err
		}
		day.add(o, hour, rep)
		o.check(rep.BlocksMined == len(tf.Arrivals), "hour %d: %d blocks mined from %d arrivals", hour, rep.BlocksMined, len(tf.Arrivals))
		if hour < replayHours {
			traces[hour] = tf
		}
		if hour == replayHours-1 {
			afterReplayHours = e.Table().Clone()
		}
		return rep.BlocksMined, nil
	})
	if err != nil {
		return err
	}
	final, err := evalLambda(o, "final", delays)
	if err != nil {
		return err
	}

	// The replay: the same arrivals, cut into the same round intervals,
	// through Begin / BroadcastAll / Finish alone.
	replay, err := newEngine(nil, noSpan, spec, m, replayTable, cfg.seed, 0)
	if err != nil {
		return err
	}
	var totals roundTotals
	var lastRoundAllocs uint64
	var buffers [][]time.Duration
	replayWall := make([]time.Duration, replayHours)
	for hour, tf := range traces {
		for lo := 0; lo < len(tf.Arrivals); {
			end := (time.Duration(tf.Arrivals[lo].AtNS)/roundInterval + 1) * roundInterval
			hi := lo
			var sources []int
			for hi < len(tf.Arrivals) && time.Duration(tf.Arrivals[hi].AtNS) < end {
				sources = append(sources, tf.Arrivals[hi].Miner)
				hi++
			}
			for len(buffers) < len(sources) {
				buffers = append(buffers, nil)
			}
			var rep core.RoundReport
			roundStart := time.Now()
			lastRoundAllocs, _, err = allocsDuring(func() error {
				var err error
				rep, err = tracedRound(rec, noSpan, hour, replay, sources, buffers[:len(sources)])
				return err
			})
			replayWall[hour] += time.Since(roundStart)
			if err != nil {
				return err
			}
			totals.add(rep)
			lo = hi
		}
	}
	same := true
	for v := 0; v < spec.n && same; v++ {
		same = slices.Equal(replay.Table().OutNeighbors(v), afterReplayHours.OutNeighbors(v))
	}
	o.check(same, "the replay through bare timed rounds did not reach the workload engine's topology after %d hours", replayHours)

	for rep := 0; rep < followReps; rep++ {
		if err := own.follow(rec, e.Table()); err != nil {
			return err
		}
	}

	runs := rec.durations("workload.Run")
	self := make([]float64, replayHours)
	for hour := range self {
		self[hour] = ms(runs[hour] - replayWall[hour])
	}
	o.set("workload.run_ms_per_hour", quantile(millis(runs), 0.5))
	o.set("workload.self_ms_per_hour", quantile(self, 0.5))
	var materialize time.Duration
	for _, d := range rec.durations("workload.NewPoisson+Materialize") {
		materialize += d
	}
	o.set("workload.trace_ns_per_arrival", float64(materialize)/float64(arrivals))
	hours := float64(size.hours)
	o.set("workload.blocks_per_hour", float64(day.mined)/hours)
	o.set("workload.rounds_per_hour", float64(day.rounds)/hours)
	o.set("workload.fork_events", float64(day.forks))
	o.set("workload.reorgs", float64(day.reorgs))
	o.set("workload.max_reorg_depth", float64(day.maxDepth))
	o.set("stale_rate_pct", day.staleRatePct())

	setRoundLayers(o, rec, totals)
	o.set("core.round_allocs", float64(lastRoundAllocs))
	o.set("alloc_kb_per_block", br.allocKBPerBlock())
	setLambdaLayers(o, start, final, size.gain)
	o.set("bench.batch_ms_p90", quantile(millis(br.wall), 0.9))
	o.note("traced run: n=%d hours=%d blocks=%d rounds=%d lambda90_ms_p50 final=%s (benchmark-generated arrivals)",
		spec.n, size.hours, day.mined, day.rounds, formatValue(final.p50))
	o.attempted = day.mined
	o.failed = day.mined - day.canonical - day.stale

	if err := simLayers(o, cfg.seed, spec, size.layers, m, own); err != nil {
		return err
	}
	if err := chainLayers(o, nil, 2*size.layers.calls); err != nil { // the workload's blocks carry no transactions
		return err
	}

	// bench.trace_overhead_pct: the public API's RunWorkload over the first
	// hours of an identical network, against the traced hours above.
	net, err := newMiningNetwork(size, cfg.seed)
	if err != nil {
		return err
	}
	ref, err := runBatches(nil, min(size.referenceHours, size.hours), func(int, int) (int, error) {
		rep, err := net.RunWorkload(time.Hour)
		if err != nil {
			return 0, err
		}
		return rep.BlocksMined, nil
	})
	if err != nil {
		return err
	}
	setTraceOverhead(o, ref, br)
	return nil
}
