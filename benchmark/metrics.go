package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric of BENCHMARK.json. The lists below are the
// program's side of that file; TestCatalogueMatchesBenchmarkJSON keeps the
// two equal.
type metricDef struct{ name, unit string }

// endToEnd is what a run prints with tracing off, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"blocks_per_s", "blocks/s"},
	{"batch_ms_p50", "ms"},
	{"cpu_ms_per_block", "ms"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_block", "count"},
	{"propagation_ms_p50", "ms"},
}

// perLayer is what a traced run prints. A workload that never calls a layer
// reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"geo.sample_ms", "ms"},
	{"latency.build_ms", "ms"},
	{"topology.random_ms", "ms"},
	{"topology.random_alloc_mb", "MB"},
	{"core.engine_new_ms", "ms"},
	{"netsim.build_ms", "ms"},
	{"core.round_prepare_ms", "ms"},
	{"topology.undirected_ms", "ms"},
	{"netsim.reconfigure_ms", "ms"},
	{"core.round_broadcast_ms", "ms"},
	{"netsim.broadcast_us", "us"},
	{"netsim.broadcast_allocs", "count"},
	{"des.queue_ns_per_op", "ns"},
	{"latency.delay_ns", "ns"},
	{"rng.pair_jitter_ns", "ns"},
	{"parallel.speedup_x", "x"},
	{"core.round_finish_ms", "ms"},
	{"core.subset_select_us", "us"},
	{"core.subset_select_w10_us", "us"},
	{"stats.percentile_ns", "ns"},
	{"core.round_allocs", "count"},
	{"alloc_kb_per_block", "KB"},
	{"core.dropped_per_round", "count"},
	{"core.added_per_round", "count"},
	{"core.unfilled_total", "count"},
	{"core.delays_ms_per_source", "ms"},
	{"netsim.arrival_analytic_us", "us"},
	{"netsim.delay_to_fraction_us", "us"},
	{"lambda90_start_ms_p50", "ms"},
	{"lambda90_ms_p50", "ms"},
	{"lambda90_ms_p90", "ms"},
	{"lambda90_gain_pct", "%"},
	{"workload.trace_ns_per_arrival", "ns"},
	{"workload.run_ms_per_hour", "ms"},
	{"workload.self_ms_per_hour", "ms"},
	{"workload.blocks_per_hour", "count"},
	{"workload.rounds_per_hour", "count"},
	{"workload.fork_events", "count"},
	{"workload.reorgs", "count"},
	{"workload.max_reorg_depth", "count"},
	{"stale_rate_pct", "%"},
	{"chain.new_block_us", "us"},
	{"chain.check_block_us", "us"},
	{"chain.header_hash_ns", "ns"},
	{"chain.store_add_us", "us"},
	{"chain.encode_us", "us"},
	{"chain.decode_us", "us"},
	{"wire.encode_ns_inv", "ns"},
	{"wire.decode_ns_inv", "ns"},
	{"wire.encode_ns_block_1k", "ns"},
	{"wire.decode_ns_block_1k", "ns"},
	{"wire.encode_ns_block_64k", "ns"},
	{"wire.decode_ns_block_64k", "ns"},
	{"wire.allocs_block_roundtrip", "count"},
	{"p2p.start_ms", "ms"},
	{"p2p.connect_us", "us"},
	{"p2p.mine_block_us", "us"},
	{"p2p.hop_us_p50", "us"},
	{"p2p.relay_serial_us_p50", "us"},
	{"p2p.msgs_per_block", "count"},
	{"p2p.send_queue_drops", "count"},
	{"p2p.dial_failures", "count"},
	{"relay_us_p50", "us"},
	{"relay_us_p90", "us"},
	{"bench.relay_us_p99", "us"},
	{"bench.batch_ms_p90", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.machine_speed_x", "x"},
}

// outcome is what one workload run produced: metric values by name, the
// output checks that failed, and the block counts.
type outcome struct {
	values    map[string]float64
	notes     []string // context lines for the human output
	failures  []string
	attempted int
	failed    int
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check records a failed output check; the run then exits non-zero.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// jsonMetric and jsonResult are the last line of a single-workload run.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints every metric of the run's list as "name = value unit", the
// notes and failed checks, and last the JSON line. An end-to-end metric the
// workload did not measure, or measured as 0 or a non-number, fails the run.
func (o *outcome) report(w io.Writer, traced bool) jsonResult {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := jsonResult{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.check(false, "%s is %v", d.name, v)
			v = 0
		}
		if !traced {
			o.check(ok && v != 0, "end-to-end metric %s not measured", d.name)
		}
		fmt.Fprintf(w, "%-32s = %s %s\n", d.name, formatValue(v), d.unit)
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	o.check(o.failed == 0, "%d of %d blocks failed", o.failed, o.attempted)
	for _, f := range o.failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
	res.Correct = len(o.failures) == 0
	line, _ := json.Marshal(res) // plain numbers and strings cannot fail to encode
	fmt.Fprintf(w, "%s\n", line)
	return res
}

// formatValue keeps every digit measured without printing float noise.
func formatValue(v float64) string {
	s := fmt.Sprintf("%.6f", v)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s
}

// usage is a reading of the process counters the per-block costs come from.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// peakRSSMB is the process high-water resident set, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// batchRun is the measured part of a run: each batch's wall time and the
// process counters across all of them.
type batchRun struct {
	wall   []time.Duration
	blocks int
	used   usage // delta over the batches
}

// runBatches times n batches; f returns the blocks its batch completed. The
// process counters are read once before and once after, so reading them
// (which stops the world) never lands inside a batch.
func runBatches(rec *recorder, n int, f func(batch, span int) (int, error)) (batchRun, error) {
	br := batchRun{wall: make([]time.Duration, 0, n)}
	before := readUsage()
	for i := 0; i < n; i++ {
		id := rec.begin("batch", noSpan, i)
		start := time.Now()
		blocks, err := f(i, id)
		wall := time.Since(start)
		rec.end(id)
		if err != nil {
			return br, fmt.Errorf("batch %d: %w", i, err)
		}
		br.wall = append(br.wall, wall)
		br.blocks += blocks
	}
	br.used = usageDelta(before, readUsage())
	return br, nil
}

func usageDelta(before, after usage) usage {
	return usage{
		cpu:     after.cpu - before.cpu,
		mallocs: after.mallocs - before.mallocs,
		bytes:   after.bytes - before.bytes,
	}
}

func sum(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

func (br batchRun) blocksPerSecond() float64 {
	return float64(br.blocks) / sum(br.wall).Seconds()
}

func (br batchRun) allocKBPerBlock() float64 {
	return float64(br.used.bytes) / 1024 / float64(br.blocks)
}

// setEndToEnd fills the end-to-end metrics every workload derives from its
// batches.
func (br batchRun) setEndToEnd(o *outcome) {
	blocks := float64(br.blocks)
	o.set("blocks_per_s", br.blocksPerSecond())
	o.set("batch_ms_p50", quantile(millis(br.wall), 0.5))
	o.set("cpu_ms_per_block", ms(br.used.cpu)/blocks)
	o.set("allocs_per_block", float64(br.used.mallocs)/blocks)
	o.note("batches=%d blocks=%d batch_ms_p90=%s alloc_kb_per_block=%s",
		len(br.wall), br.blocks, formatValue(quantile(millis(br.wall), 0.9)), formatValue(br.allocKBPerBlock()))
}

// timeSetup runs build r times and returns the last build's product and the
// median build time in seconds. Earlier products are dropped, as a user's
// would be.
func timeSetup[T any](r int, build func() (T, error)) (last T, seconds float64, err error) {
	walls := make([]float64, 0, r)
	for i := 0; i < r; i++ {
		start := time.Now()
		v, err := build()
		wall := time.Since(start)
		if err != nil {
			return last, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		walls = append(walls, wall.Seconds())
		last = v
	}
	return last, quantile(walls, 0.5), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

// quantile is the p-quantile of xs by linear interpolation between order
// statistics; xs is not modified. It is the harness's own so that a change
// to internal/stats cannot move the numbers it is measured by.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
