package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/hashpower"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/netsim"
	"github.com/perigee-net/perigee/internal/parallel"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/topology"
)

// Algorithm labels shared across figures (the paper's legend names).
const (
	LabelRandom     = "random"
	LabelGeographic = "geographic"
	LabelKademlia   = "kademlia"
	LabelVanilla    = "Perigee-Vanilla"
	LabelUCB        = "Perigee-UCB"
	LabelSubset     = "Perigee-Subset"
	LabelIdeal      = "ideal"
)

// standardAlgos returns the full comparison set of Figure 3.
func standardAlgos() []algo {
	return []algo{
		randomAlgo,
		geographicAlgo,
		staticAlgo(LabelKademlia, (*env).kademlia),
		perigeeAlgo(LabelVanilla, core.Vanilla),
		perigeeAlgo(LabelUCB, core.UCB),
		perigeeAlgo(LabelSubset, core.Subset),
		idealAlgo,
	}
}

// Figure3a reproduces Figure 3(a): minimum delay to 90% of hash power for
// all seven algorithms under uniform hash power.
func Figure3a(opt Options) (*Result, error) {
	res, err := runFigure(opt, "figure3a",
		"Fig 3(a): delay to 90% hash power, uniform hash power",
		nil, standardAlgos())
	if err != nil {
		return nil, err
	}
	annotateImprovement(res)
	return res, nil
}

// Figure3b reproduces Figure 3(b): the same comparison with hash power
// drawn from an exponential distribution (normalized).
func Figure3b(opt Options) (*Result, error) {
	setup := func(e *env) error {
		power, err := hashpower.Exponential(e.opt.Nodes, e.root.Derive("exp-power"))
		if err != nil {
			return err
		}
		e.power = power
		return nil
	}
	res, err := runFigure(opt, "figure3b",
		"Fig 3(b): delay to 90% hash power, exponential hash power",
		setup, standardAlgos())
	if err != nil {
		return nil, err
	}
	annotateImprovement(res)
	return res, nil
}

// ValidationMultipliers are the Figure 4(a) block-validation-time sweep
// points (0.1x–10x of the 50 ms default).
var ValidationMultipliers = []float64{0.1, 0.5, 1, 5, 10}

// Figure4a reproduces Figure 4(a): Perigee-Subset vs random as the
// per-node validation delay is scaled from 0.1x to 10x its default.
// Series are labeled "<algo>-<mult>x".
func Figure4a(opt Options) (*Result, error) {
	var algos []algo
	for _, mult := range ValidationMultipliers {
		// Each arm scales its own env's validation delays.
		scaled := func(a algo) algo {
			return algo{a.label, func(e *env) ([]float64, error) {
				e.forward = scaleForward(e.forward, mult)
				return a.run(e)
			}}
		}
		random := algo{fmt.Sprintf("%s-%gx", LabelRandom, mult), randomAlgo.run}
		subset := perigeeAlgo(fmt.Sprintf("%s-%gx", LabelSubset, mult), core.Subset)
		algos = append(algos, scaled(random), scaled(subset))
	}
	res, err := runFigure(opt, "figure4a", "Fig 4(a): sensitivity to block validation delay (0.1x-10x)", nil, algos)
	if err != nil {
		return nil, err
	}
	// Note the expected trend: Perigee's relative advantage shrinks as
	// validation dominates propagation.
	for i, mult := range ValidationMultipliers {
		randomS, subsetS := res.Series[2*i], res.Series[2*i+1]
		if m := randomS.Median(); m > 0 && !math.IsInf(m, 1) {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"validation %gx: Perigee-Subset median %.0f ms vs random %.0f ms (%.0f%% better)",
				mult, subsetS.Median(), m, improvementPct(subsetS.Median(), m)))
		}
	}
	return res, nil
}

// Figure4b reproduces Figure 4(b): 10% of the nodes hold 90% of the hash
// power and enjoy fast links among themselves.
func Figure4b(opt Options) (*Result, error) {
	const (
		poolFrac     = 0.10
		powerFrac    = 0.90
		minerSpeedup = 0.1 // miner-miner latency scaled to 10% of default
	)
	setup := func(e *env) error {
		power, miners, err := hashpower.Pools(e.opt.Nodes, poolFrac, powerFrac, e.root.Derive("pools"))
		if err != nil {
			return err
		}
		e.power = power
		fast := make(map[[2]int]time.Duration)
		for i := 0; i < len(miners); i++ {
			for j := i + 1; j < len(miners); j++ {
				fast[pairKey(miners[i], miners[j])] = time.Duration(float64(e.lat.Delay(miners[i], miners[j])) * minerSpeedup)
			}
		}
		e.lat = pinDelays(e.lat, fast)
		return nil
	}
	res, err := runFigure(opt, "figure4b",
		"Fig 4(b): 10% of nodes hold 90% of hash power with fast miner links",
		setup, standardSubsetComparison())
	if err != nil {
		return nil, err
	}
	annotateImprovement(res)
	return res, nil
}

// Figure4c reproduces Figure 4(c): a 100-node low-latency relay tree
// (validation at 10% of default inside the relay) is embedded in the
// network; Perigee should learn to exploit it and approach the ideal.
func Figure4c(opt Options) (*Result, error) {
	relayCount := opt.Nodes / 10
	if relayCount < 4 {
		relayCount = 4
	}
	const (
		relayLinkDelay      = 5 * time.Millisecond
		relayValidationMult = 0.1
	)
	setup := func(e *env) error {
		perm := e.root.Derive("relay-members").Perm(e.opt.Nodes)
		members := perm[:relayCount]
		edges, err := topology.RelayTree(members, 2)
		if err != nil {
			return err
		}
		e.pinned = edges
		fast := make(map[[2]int]time.Duration, len(edges))
		for _, edge := range edges {
			fast[pairKey(edge[0], edge[1])] = relayLinkDelay
		}
		e.lat = pinDelays(e.lat, fast)
		for _, m := range members {
			e.forward[m] = time.Duration(float64(e.forward[m]) * relayValidationMult)
		}
		return nil
	}
	res, err := runFigure(opt, "figure4c",
		"Fig 4(c): fast block-distribution relay tree embedded in the network",
		setup, standardSubsetComparison())
	if err != nil {
		return nil, err
	}
	annotateImprovement(res)
	return res, nil
}

// pinDelays returns lat with each pair in pins, keyed by pairKey, pinned to
// its delay in both directions.
func pinDelays(lat latency.Model, pins map[[2]int]time.Duration) latency.Model {
	m := latency.NewMutableLatency(lat)
	m.SetTransform(func(u, v int, d time.Duration) time.Duration {
		if p, ok := pins[pairKey(u, v)]; ok {
			return p
		}
		return d
	})
	return m
}

// pairKey names the undirected pair {u, v}, lower node first.
func pairKey(u, v int) [2]int { return [2]int{min(u, v), max(u, v)} }

// standardSubsetComparison is the reduced algorithm set used by the
// Figure 4(b)/(c) scenario studies.
func standardSubsetComparison() []algo {
	return []algo{randomAlgo, geographicAlgo, perigeeAlgo(LabelSubset, core.Subset), idealAlgo}
}

// EdgeHistogramRange is the Figure 5 histogram domain in milliseconds.
const (
	EdgeHistogramLoMs = 0.0
	EdgeHistogramHiMs = 250.0
	EdgeHistogramBins = 25
)

// Figure5 reproduces Figure 5: histograms of the edge latencies in the
// final p2p graph under each algorithm (uniform hash power). Perigee-Subset
// should concentrate mass in the intra-continental (low-latency) mode.
func Figure5(opt Options) (*Result, error) {
	// One job per trial builds every topology on the trial's env and
	// returns each final graph's edge latencies (ms), each undirected edge
	// once, in builds' order.
	builds := []struct {
		label string
		build func(*env) (*topology.Table, error)
	}{
		{LabelRandom, func(e *env) (*topology.Table, error) { return e.buildRandom(LabelRandom) }},
		{LabelGeographic, (*env).geographic},
		{LabelKademlia, (*env).kademlia},
		{LabelSubset, func(e *env) (*topology.Table, error) {
			_, engine, err := e.runPerigee(LabelSubset, core.Subset)
			if err != nil {
				return nil, err
			}
			return engine.Table(), nil
		}},
	}
	perTrial, regret, err := runTrials(opt, "figure5", nil, []arm[[][]float64]{{LabelSubset, func(e *env) ([][]float64, error) {
		edges := make([][]float64, len(builds))
		var row []int32
		for i, b := range builds {
			tbl, err := b.build(e)
			if err != nil {
				return nil, err
			}
			for u := range tbl.N() {
				row = tbl.AppendUndirected(row[:0], u)
				for _, v := range row {
					if u < int(v) {
						edges[i] = append(edges[i], float64(e.lat.Delay(u, int(v)))/float64(time.Millisecond))
					}
				}
			}
		}
		return edges, nil
	}}})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:         "figure5",
		Title:      "Fig 5: edge-latency histograms of converged topologies",
		Options:    opt,
		Histograms: make(map[string]*stats.Histogram),
		Regret:     regret,
	}
	for i, b := range builds {
		h, err := stats.NewHistogram(EdgeHistogramLoMs, EdgeHistogramHiMs, EdgeHistogramBins)
		if err != nil {
			return nil, err
		}
		for _, edges := range perTrial[0] {
			for _, d := range edges[i] {
				h.Add(d)
			}
		}
		res.Histograms[b.label] = h
		// Headline statistic: fraction of edge mass in the low-latency half.
		res.Notes = append(res.Notes, fmt.Sprintf("%s: %.0f%% of edges below %.0f ms",
			b.label, 100*lowModeFraction(h), (EdgeHistogramLoMs+EdgeHistogramHiMs)/2))
	}
	return res, nil
}

// lowModeFraction returns the fraction of histogram mass in the lower half
// of the domain — the intra-continental mode of Figure 5.
func lowModeFraction(h *stats.Histogram) float64 {
	fr := h.Fractions()
	var sum float64
	for i := 0; i < len(fr)/2; i++ {
		sum += fr[i]
	}
	return sum
}

// Figure1 reproduces Figure 1's stretch comparison: 1000 points in the
// unit square, random 3-regular connectivity vs a geometric threshold
// graph. The series are stretch distributions (sorted, dimensionless).
func Figure1(opt Options) (*Result, error) {
	n := opt.Nodes
	series, err := stretchSweep(opt, []string{"random-stretch", "geometric-stretch"}, 200, func(s, t int) stretchCurve {
		root := rng.New(opt.Seed).DeriveIndexed("figure1", t)
		if s == 0 {
			return stretchCurve{n, root, "pairs-random", func(*latency.Hypercube) (*topology.Table, error) {
				return topology.RandomUndirected(n, 3, root.Derive("random"))
			}}
		}
		return stretchCurve{n, root, "pairs-geom", func(cube *latency.Hypercube) (*topology.Table, error) {
			return topology.Geometric(n, cube.Distance, geometricRadius(n, 2))
		}}
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:      "figure1",
		Title:   "Fig 1: path stretch, random vs geometric graph on the unit square",
		Options: opt,
		Series:  series,
		Notes: []string{fmt.Sprintf("median stretch: random %.2f vs geometric %.2f",
			series[0].Median(), series[1].Median())},
	}, nil
}

// stretchCurve is one (series, trial) cell of a stretch sweep: n points in
// the unit square drawn from root's "points" stream, the graph over them,
// and the stream the sampled pairs come from.
type stretchCurve struct {
	n     int
	root  *rng.RNG
	pairs string
	graph func(cube *latency.Hypercube) (*topology.Table, error)
}

// stretchSweep is the pipeline of Figure 1 and the theorem sweeps: for
// every (series, trial) cell that curve describes it samples the points,
// builds the graph and takes the CDF of pairs sampled pairs' stretch, all
// cells on one worker pool, then folds each series' trials into a Series
// labelled from labels.
func stretchSweep(opt Options, labels []string, pairs int, curve func(s, t int) stretchCurve) ([]Series, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	cdfs := make([][][]float64, len(labels))
	for i := range cdfs {
		cdfs[i] = make([][]float64, opt.Trials)
	}
	err := parallel.ForEachIndexed(len(labels)*opt.Trials, opt.Workers, func(_, j int) error {
		s, t := j/opt.Trials, j%opt.Trials
		c := curve(s, t)
		cube, err := latency.NewHypercube(c.n, 2, 100*time.Millisecond, c.root.Derive("points"))
		if err != nil {
			return err
		}
		g, err := c.graph(cube)
		if err != nil {
			return err
		}
		ss, err := stretchSample(g, cube, pairs, c.root.Derive(c.pairs))
		if err != nil {
			return err
		}
		cdfs[s][t] = stats.CDF(ss)
		return nil
	})
	if err != nil {
		return nil, err
	}
	series := make([]Series, len(labels))
	for i, label := range labels {
		if series[i], err = aggregate(label, cdfs[i]); err != nil {
			return nil, err
		}
	}
	return series, nil
}

// stretchSample measures multiplicative path stretch over random node
// pairs: the shortest-path delay through g divided by the direct delay.
// Each sampled source's distances are the arrivals of one flood on a
// simulator with zero forwarding delay: delays are integer nanoseconds, so
// an arrival is the exact shortest-path sum in any relaxation order. Pairs
// with zero direct delay or in different components are skipped. It
// returns one stretch value per usable pair.
func stretchSample(g *topology.Table, lat latency.Model, pairs int, r *rng.RNG) ([]float64, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 nodes for stretch")
	}
	if pairs <= 0 {
		return nil, fmt.Errorf("experiments: pair count %d must be positive", pairs)
	}
	if r == nil {
		return nil, fmt.Errorf("experiments: nil rng")
	}
	sim, err := netsim.NewRows(netsim.Config{Latency: lat, Forward: make([]time.Duration, n), Workers: 1}, g)
	if err != nil {
		return nil, err
	}
	var (
		out  []float64
		dist []time.Duration
	)
	// Group pairs by source so one flood serves several targets. Bound
	// total attempts so a disconnected or degenerate graph cannot loop
	// forever.
	const perSource = 4
	maxAttempts := pairs * 50
	for attempts := 0; len(out) < pairs; attempts++ {
		if attempts >= maxAttempts {
			return nil, fmt.Errorf("experiments: could not find %d usable pairs in %d attempts (graph disconnected?)", pairs, maxAttempts)
		}
		src := r.IntN(n)
		if dist, err = sim.ArrivalAnalyticInto(dist, src); err != nil {
			return nil, err
		}
		for k := 0; k < perSource && len(out) < pairs; k++ {
			dst := r.IntN(n)
			if dst == src {
				continue
			}
			direct := lat.Delay(src, dst)
			if direct <= 0 || dist[dst] == stats.InfDuration {
				continue
			}
			out = append(out, float64(dist[dst])/float64(direct))
		}
	}
	return out, nil
}

// geometricRadius is the connectivity threshold r = Θ((log n / n)^(1/d))
// of Theorem 2, with a constant chosen to keep the graph connected w.h.p.
func geometricRadius(n, d int) float64 {
	return 2.2 * math.Pow(math.Log(float64(n))/float64(n), 1/float64(d))
}

// TheoremSizes are the network sizes swept by the Theorem 1/2 experiments.
var TheoremSizes = []int{200, 400, 800, 1600}

// Theorem1 empirically validates Theorem 1: on random graphs over embedded
// points, median stretch grows with n (the log-factor suboptimality).
func Theorem1(opt Options) (*Result, error) {
	return theoremExperiment(opt, "theorem1",
		"Thm 1: stretch of random graphs grows with network size", false)
}

// Theorem2 empirically validates Theorem 2: geometric threshold graphs
// keep constant stretch as n grows.
func Theorem2(opt Options) (*Result, error) {
	return theoremExperiment(opt, "theorem2",
		"Thm 2: stretch of geometric graphs stays constant", true)
}

func theoremExperiment(opt Options, id, title string, geometric bool) (*Result, error) {
	labels := make([]string, len(TheoremSizes))
	for i, n := range TheoremSizes {
		labels[i] = fmt.Sprintf("n=%d", n)
	}
	series, err := stretchSweep(opt, labels, 150, func(s, t int) stretchCurve {
		n := TheoremSizes[s]
		root := rng.New(opt.Seed).DeriveIndexed(fmt.Sprintf("%s-%d", id, n), t)
		return stretchCurve{n, root, "pairs", func(cube *latency.Hypercube) (*topology.Table, error) {
			if geometric {
				return topology.Geometric(n, cube.Distance, geometricRadius(n, 2))
			}
			// Average degree ~ c log n mirrors p <= c log n / n.
			deg := max(int(math.Ceil(math.Log(float64(n))/2)), 2)
			return topology.RandomUndirected(n, deg, root.Derive("graph"))
		}}
	})
	if err != nil {
		return nil, err
	}
	res := &Result{ID: id, Title: title, Options: opt, Series: series}
	for i, n := range TheoremSizes {
		res.Notes = append(res.Notes, fmt.Sprintf("n=%d: median stretch %.2f", n, series[i].Median()))
	}
	return res, nil
}

// annotateImprovement appends the headline Perigee-vs-random improvement
// note when both curves exist.
func annotateImprovement(res *Result) {
	randomS, err1 := res.SeriesByLabel(LabelRandom)
	perigeeS, err2 := res.SeriesByLabel(LabelSubset)
	if err1 != nil || err2 != nil {
		return
	}
	rm, pm := randomS.Median(), perigeeS.Median()
	if rm <= 0 || math.IsInf(rm, 1) || math.IsInf(pm, 1) {
		return
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"Perigee-Subset median %.0f ms vs random %.0f ms: %.0f%% improvement",
		pm, rm, improvementPct(pm, rm)))
}

// improvementPct is how much lower (in percent) a median is than the
// random baseline's; callers guard the baseline themselves.
func improvementPct(median, random float64) float64 {
	return 100 * (1 - median/random)
}
