package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/hashpower"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/netsim"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/topology"
)

// The paper's evaluation constants, as perigee.New defaults them.
const (
	outDegree   = 8
	maxIncoming = 20
	validation  = 50 * time.Millisecond
	powerShare  = 0.9 // λ is the time to reach this share of the hash power
)

// simSpec is what distinguishes the simulator stacks of the three sim
// workloads.
type simSpec struct {
	n      int
	pools  bool         // 10% of the nodes hold 90% of the power, else uniform
	window int          // core.Config.ObservationWindow; 0 scores the whole round
	mode   latency.Mode // Auto streams at n >= 20000
}

// simModels are an engine's inputs, built in the order and from the derived
// streams perigee.New uses, so the hand-built stack of a traced run starts
// from the topology the public API would build for the same seed.
type simModels struct {
	lat     *latency.Geographic
	table   *topology.Table
	power   []float64
	forward []time.Duration

	randomAllocBytes uint64 // what topology.Random allocated; traced runs only
}

// buildModels makes the models and the starting topology, one span per
// layer constructor.
func buildModels(rec *recorder, parent int, spec simSpec, seed uint64) (*simModels, error) {
	root := rng.New(seed)

	id := rec.begin("geo.SampleUniverse", parent, -1)
	universe, err := geo.SampleUniverse(spec.n, root.Derive("universe"))
	rec.end(id)
	if err != nil {
		return nil, err
	}

	id = rec.begin("latency.NewGeographic", parent, -1)
	lat, err := latency.NewGeographic(universe, root.Derive("latency"))
	rec.end(id)
	if err != nil {
		return nil, err
	}

	var table *topology.Table
	build := func() error {
		id := rec.begin("topology.Random", parent, -1)
		table, err = topology.Random(spec.n, outDegree, maxIncoming, root.Derive("topology"))
		rec.end(id)
		return err
	}
	var randomAllocBytes uint64
	if rec == nil {
		err = build()
	} else {
		_, randomAllocBytes, err = allocsDuring(build)
	}
	if err != nil {
		return nil, err
	}

	var power []float64
	if spec.pools {
		power, _, err = hashpower.Pools(spec.n, 0.1, 0.9, root.Derive("power"))
	} else {
		power, err = hashpower.Uniform(spec.n)
	}
	if err != nil {
		return nil, err
	}
	forward := make([]time.Duration, spec.n)
	for i := range forward {
		forward[i] = validation
	}
	return &simModels{lat: lat, table: table, power: power, forward: forward, randomAllocBytes: randomAllocBytes}, nil
}

// newEngine builds a Subset engine over table, which it takes ownership of.
// Every engine of one run gets the same derived stream, so engines started
// from clones of one table and fed the same sources evolve identically.
func newEngine(rec *recorder, parent int, spec simSpec, m *simModels, table *topology.Table, seed uint64, workers int) (*core.Engine, error) {
	id := rec.begin("core.NewEngine", parent, -1)
	defer rec.end(id)
	return core.NewEngine(core.Config{
		Method:            core.Subset,
		Table:             table,
		Latency:           m.lat,
		Forward:           m.forward,
		Power:             m.power,
		Rand:              rng.New(seed).Derive("engine"),
		Workers:           workers,
		LatencyMode:       spec.mode,
		ObservationWindow: spec.window,
	})
}

// roundTotals sums the RoundReport counts of a run.
type roundTotals struct {
	rounds, dropped, added, unfilled int
}

func (t *roundTotals) add(r core.RoundReport) {
	t.rounds++
	t.dropped += r.Dropped
	t.added += r.Added
	t.unfilled += r.Unfilled
}

// tracedRound drives one round from outside as Begin, BroadcastAll and
// Finish, each under its own span, which is how a round is split into
// prepare, broadcast and scoring without timers inside the engine.
func tracedRound(rec *recorder, parent, batch int, e *core.Engine, sources []int, arrivals [][]time.Duration) (core.RoundReport, error) {
	round := rec.begin("core.round", parent, batch)
	defer rec.end(round)

	id := rec.begin("core.BeginTimedRound", round, batch)
	tr, err := core.BeginTimedRound(e, len(sources))
	rec.end(id)
	if err != nil {
		return core.RoundReport{}, err
	}
	id = rec.begin("core.TimedRound.BroadcastAll", round, batch)
	err = tr.BroadcastAll(sources, arrivals)
	rec.end(id)
	if err != nil {
		return core.RoundReport{}, err
	}
	id = rec.begin("core.TimedRound.Finish", round, batch)
	rep, err := tr.Finish()
	rec.end(id)
	return rep, err
}

// lambda is the distribution of λ_v(0.9) over the evaluated sources, in
// simulated milliseconds.
type lambda struct {
	p50, p90 float64
	sources  int
	wall     time.Duration // host time of the evaluation pass
}

func (l lambda) msPerSource() float64 { return ms(l.wall) / float64(l.sources) }

// evalLambda times one λ evaluation pass and fails the run on a source
// whose block never reaches 90% of the hash power.
func evalLambda(o *outcome, what string, delays func() ([]time.Duration, error)) (lambda, error) {
	start := time.Now()
	ds, err := delays()
	wall := time.Since(start)
	if err != nil {
		return lambda{}, fmt.Errorf("λ evaluation (%s): %w", what, err)
	}
	vals := make([]float64, len(ds))
	unreached := 0
	for i, d := range ds {
		if d >= stats.InfDuration || d < 0 {
			unreached++
		}
		vals[i] = ms(d)
	}
	o.check(unreached == 0, "%s topology: λ is not finite for %d of %d sources", what, unreached, len(ds))
	return lambda{p50: quantile(vals, 0.5), p90: quantile(vals, 0.9), sources: len(ds), wall: wall}, nil
}

func gainPct(start, final lambda) float64 { return (start.p50 - final.p50) / start.p50 * 100 }

// checkGain fails the run when the topology did not learn what the workload
// expects of it: want is the open range lambda90_gain_pct must fall in.
func checkGain(o *outcome, start, final lambda, want [2]float64) float64 {
	gain := gainPct(start, final)
	o.check(gain > want[0] && gain < want[1], "lambda90_gain_pct = %.3f, want between %v and %v", gain, want[0], want[1])
	return gain
}

// reportLambda records the propagation metrics of an untraced sim run.
func reportLambda(o *outcome, start, final lambda, want [2]float64) {
	o.set("propagation_ms_p50", final.p50)
	gain := checkGain(o, start, final, want)
	o.note("lambda90_ms_p50 start=%s final=%s lambda90_ms_p90 final=%s lambda90_gain_pct=%s eval_ms_per_source=%s (simulated ms; %d sources)",
		formatValue(start.p50), formatValue(final.p50), formatValue(final.p90), formatValue(gain),
		formatValue(quantile([]float64{start.msPerSource(), final.msPerSource()}, 0.5)), final.sources)
}

// setLambdaLayers reports the λ passes of a traced sim run.
func setLambdaLayers(o *outcome, start, final lambda, want [2]float64) {
	o.set("core.delays_ms_per_source", quantile([]float64{start.msPerSource(), final.msPerSource()}, 0.5))
	o.set("lambda90_start_ms_p50", start.p50)
	o.set("lambda90_ms_p50", final.p50)
	o.set("lambda90_ms_p90", final.p90)
	o.set("lambda90_gain_pct", checkGain(o, start, final, want))
}

// benchRand is the benchmark's own input stream for a purpose: block
// sources, landmarks and payloads come from here, never from the program's
// generators, so a change to internal/rng cannot change the inputs.
func benchRand(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, purpose))
}

const (
	purposeSources = iota + 1
	purposeLandmarks
	purposeLayers
	purposePayload
)

// landmarks picks k distinct evaluation sources, ascending.
func landmarks(seed uint64, n, k int) []int {
	out := benchRand(seed, purposeLandmarks).Perm(n)[:k]
	sort.Ints(out)
	return out
}

// uniformSources fills dst with block sources drawn uniformly.
func uniformSources(r *rand.Rand, dst []int, n int) {
	for i := range dst {
		dst[i] = r.IntN(n)
	}
}

// allocsDuring runs f and returns the heap objects and bytes it allocated.
func allocsDuring(f func() error) (mallocs, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// ownSimulator is the benchmark's own netsim.Simulator over the engine's
// topology, for the layer calls the engine otherwise makes internally:
// netsim.New, Table.UndirectedInto, Simulator.Reconfigure, and after the
// run Broadcast, ArrivalAnalyticInto and DelayToFraction.
type ownSimulator struct {
	sim *netsim.Simulator
	adj [][]int
}

func newOwnSimulator(rec *recorder, parent int, spec simSpec, m *simModels) (*ownSimulator, error) {
	adj := m.table.Undirected()
	id := rec.begin("netsim.New", parent, -1)
	sim, err := netsim.New(netsim.Config{Adj: adj, Latency: m.lat, Forward: m.forward, LatencyMode: spec.mode})
	rec.end(id)
	if err != nil {
		return nil, err
	}
	return &ownSimulator{sim: sim, adj: adj}, nil
}

// follow moves the simulator to the table's current topology, timing the
// two calls an engine round's prepare phase is made of.
func (s *ownSimulator) follow(rec *recorder, table *topology.Table) error {
	id := rec.begin("topology.Table.UndirectedInto", noSpan, -1)
	s.adj = table.UndirectedInto(s.adj)
	rec.end(id)
	id = rec.begin("netsim.Simulator.Reconfigure", noSpan, -1)
	err := s.sim.Reconfigure(s.adj)
	rec.end(id)
	return err
}

// medianSpanMS is the median length in ms of the spans of one name; 0 when
// there are none.
func medianSpanMS(rec *recorder, name string) float64 {
	ds := rec.durations(name)
	if len(ds) == 0 {
		return 0
	}
	return quantile(millis(ds), 0.5)
}

// setRoundLayers reports the per-round spans and counts of a traced sim run
// and checks that the three phases account for the rounds.
func setRoundLayers(o *outcome, rec *recorder, totals roundTotals) {
	o.set("core.round_prepare_ms", medianSpanMS(rec, "core.BeginTimedRound"))
	o.set("core.round_broadcast_ms", medianSpanMS(rec, "core.TimedRound.BroadcastAll"))
	o.set("core.round_finish_ms", medianSpanMS(rec, "core.TimedRound.Finish"))
	o.set("topology.undirected_ms", medianSpanMS(rec, "topology.Table.UndirectedInto"))
	o.set("netsim.reconfigure_ms", medianSpanMS(rec, "netsim.Simulator.Reconfigure"))
	o.set("core.dropped_per_round", float64(totals.dropped)/float64(totals.rounds))
	o.set("core.added_per_round", float64(totals.added)/float64(totals.rounds))
	o.set("core.unfilled_total", float64(totals.unfilled))
	o.check(totals.unfilled == 0, "core.unfilled_total = %d, want 0", totals.unfilled)

	low, worst := 0, 1.0
	for _, c := range coverage(rec.spans, "core.round") {
		if c < 0.95 {
			low++
		}
		if c < worst {
			worst = c
		}
	}
	o.check(low == 0, "prepare + broadcast + finish cover under 95%% of %d round spans (worst %.1f%%)", low, worst*100)
}

// setSetupLayers reports the constructor spans of a traced sim run.
func setSetupLayers(o *outcome, rec *recorder) {
	o.set("geo.sample_ms", medianSpanMS(rec, "geo.SampleUniverse"))
	o.set("latency.build_ms", medianSpanMS(rec, "latency.NewGeographic"))
	o.set("topology.random_ms", medianSpanMS(rec, "topology.Random"))
	o.set("core.engine_new_ms", medianSpanMS(rec, "core.NewEngine"))
	o.set("netsim.build_ms", medianSpanMS(rec, "netsim.New"))
}
