package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/hashpower"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/paper"
	"github.com/perigee-net/perigee/internal/parallel"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/topology"
	"github.com/perigee-net/perigee/internal/trace"
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
		{LabelRandom, func(e *env) ([]float64, error) {
			tbl, err := e.buildRandom(LabelRandom)
			if err != nil {
				return nil, err
			}
			return e.evalTopology(tbl)
		}},
		{LabelGeographic, func(e *env) ([]float64, error) {
			tbl, err := topology.Geographic(e.universe, 8, 4, paper.MaxIncoming, e.root.Derive("geo-topology"))
			if err != nil {
				return nil, err
			}
			return e.evalTopology(tbl)
		}},
		{LabelKademlia, func(e *env) ([]float64, error) {
			tbl, err := topology.Kademlia(e.opt.Nodes, 8, paper.MaxIncoming, e.root.Derive("kad-topology"))
			if err != nil {
				return nil, err
			}
			return e.evalTopology(tbl)
		}},
		perigeeAlgo(LabelVanilla, core.Vanilla),
		perigeeAlgo(LabelUCB, core.UCB),
		perigeeAlgo(LabelSubset, core.Subset),
		{LabelIdeal, func(e *env) ([]float64, error) { return e.evalIdeal() }},
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
	if err := opt.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		ID:      "figure4a",
		Title:   "Fig 4(a): sensitivity to block validation delay (0.1x-10x)",
		Options: opt,
	}
	for _, mult := range ValidationMultipliers {
		mult := mult
		setup := func(e *env) error {
			e.forward = scaleForward(e.forward, mult)
			return nil
		}
		sub, err := runFigure(opt, res.ID, res.Title, setup, []algo{
			{fmt.Sprintf("%s-%gx", LabelRandom, mult), func(e *env) ([]float64, error) {
				tbl, err := e.buildRandom(LabelRandom)
				if err != nil {
					return nil, err
				}
				return e.evalTopology(tbl)
			}},
			perigeeAlgo(fmt.Sprintf("%s-%gx", LabelSubset, mult), core.Subset),
		})
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, sub.Series...)
		res.Regret = append(res.Regret, sub.Regret...)
	}
	// Note the expected trend: Perigee's relative advantage shrinks as
	// validation dominates propagation.
	for _, mult := range ValidationMultipliers {
		randomS, err := res.SeriesByLabel(fmt.Sprintf("%s-%gx", LabelRandom, mult))
		if err != nil {
			return nil, err
		}
		subsetS, err := res.SeriesByLabel(fmt.Sprintf("%s-%gx", LabelSubset, mult))
		if err != nil {
			return nil, err
		}
		if m := randomS.Median(); m > 0 && !math.IsInf(m, 1) {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"validation %gx: Perigee-Subset median %.0f ms vs random %.0f ms (%.0f%% better)",
				mult, subsetS.Median(), m, 100*(1-subsetS.Median()/m)))
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
		over, err := latency.NewOverride(e.lat)
		if err != nil {
			return err
		}
		for i := 0; i < len(miners); i++ {
			for j := i + 1; j < len(miners); j++ {
				fast := time.Duration(float64(e.lat.Delay(miners[i], miners[j])) * minerSpeedup)
				if err := over.Set(miners[i], miners[j], fast); err != nil {
					return err
				}
			}
		}
		e.lat = over
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
		over, err := latency.NewOverride(e.lat)
		if err != nil {
			return err
		}
		for _, edge := range edges {
			if err := over.Set(edge[0], edge[1], relayLinkDelay); err != nil {
				return err
			}
		}
		e.lat = over
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

// standardSubsetComparison is the reduced algorithm set used by the
// Figure 4(b)/(c) scenario studies.
func standardSubsetComparison() []algo {
	return []algo{
		{LabelRandom, func(e *env) ([]float64, error) {
			tbl, err := e.buildRandom(LabelRandom)
			if err != nil {
				return nil, err
			}
			return e.evalTopology(tbl)
		}},
		{LabelGeographic, func(e *env) ([]float64, error) {
			tbl, err := topology.Geographic(e.universe, 8, 4, paper.MaxIncoming, e.root.Derive("geo-topology"))
			if err != nil {
				return nil, err
			}
			return e.evalTopology(tbl)
		}},
		perigeeAlgo(LabelSubset, core.Subset),
		{LabelIdeal, func(e *env) ([]float64, error) { return e.evalIdeal() }},
	}
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
	if err := opt.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		ID:         "figure5",
		Title:      "Fig 5: edge-latency histograms of converged topologies",
		Options:    opt,
		Histograms: make(map[string]*stats.Histogram),
	}
	addHist := func(label string, adj [][]int, lat latency.Model) error {
		h, ok := res.Histograms[label]
		if !ok {
			var err error
			h, err = stats.NewHistogram(EdgeHistogramLoMs, EdgeHistogramHiMs, EdgeHistogramBins)
			if err != nil {
				return err
			}
			res.Histograms[label] = h
		}
		for u := range adj {
			for _, v := range adj[u] {
				if u < v { // count each undirected edge once
					h.Add(float64(lat.Delay(u, v)) / float64(time.Millisecond))
				}
			}
		}
		return nil
	}
	// Per-trial topologies are built in parallel; histograms are merged
	// sequentially in (trial, label) order so bin counts never depend on
	// scheduling.
	type trialGraphs struct {
		lat latency.Model
		adj map[string][][]int
	}
	perTrial := make([]trialGraphs, opt.Trials)
	perTrace := make([][]*trace.Summary, opt.Trials)
	outer, innerOpt := splitWorkers(opt, opt.Trials)
	err := parallel.ForEachIndexed(opt.Trials, outer, func(_, t int) error {
		e, err := newEnv(innerOpt, t)
		if err != nil {
			return err
		}
		adj := make(map[string][][]int, 4)
		randomTbl, err := e.buildRandom(LabelRandom)
		if err != nil {
			return err
		}
		adj[LabelRandom] = randomTbl.Undirected()
		geoTbl, err := topology.Geographic(e.universe, 8, 4, paper.MaxIncoming, e.root.Derive("geo-topology"))
		if err != nil {
			return err
		}
		adj[LabelGeographic] = geoTbl.Undirected()
		kadTbl, err := topology.Kademlia(e.opt.Nodes, 8, paper.MaxIncoming, e.root.Derive("kad-topology"))
		if err != nil {
			return err
		}
		adj[LabelKademlia] = kadTbl.Undirected()
		_, engine, err := e.runPerigee(LabelSubset, core.Subset)
		if err != nil {
			return err
		}
		adj[LabelSubset] = engine.Adjacency()
		perTrial[t] = trialGraphs{lat: e.lat, adj: adj}
		perTrace[t] = e.regret()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Regret = mergeRegret(perTrace...)
	for t := 0; t < opt.Trials; t++ {
		for _, label := range []string{LabelRandom, LabelGeographic, LabelKademlia, LabelSubset} {
			if err := addHist(label, perTrial[t].adj[label], perTrial[t].lat); err != nil {
				return nil, err
			}
		}
	}
	// Headline statistic: fraction of edge mass in the low-latency half.
	for _, label := range []string{LabelRandom, LabelGeographic, LabelKademlia, LabelSubset} {
		h := res.Histograms[label]
		frac := lowModeFraction(h)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: %.0f%% of edges below %.0f ms",
			label, 100*frac, (EdgeHistogramLoMs+EdgeHistogramHiMs)/2))
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
	if err := opt.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		ID:      "figure1",
		Title:   "Fig 1: path stretch, random vs geometric graph on the unit square",
		Options: opt,
	}
	const pairs = 200
	randomTrials := make([][]float64, opt.Trials)
	geomTrials := make([][]float64, opt.Trials)
	err := parallel.ForEachIndexed(opt.Trials, opt.Workers, func(_, t int) error {
		root := rng.New(opt.Seed).DeriveIndexed("figure1", t)
		cube, err := latency.NewHypercube(opt.Nodes, 2, 100*time.Millisecond, root.Derive("points"))
		if err != nil {
			return err
		}
		weight := func(u, v int) time.Duration { return cube.Delay(u, v) }
		randomAdj, err := topology.RandomUndirected(opt.Nodes, 3, root.Derive("random"))
		if err != nil {
			return err
		}
		radius := geometricRadius(opt.Nodes, 2)
		geomAdj, err := topology.Geometric(opt.Nodes, cube.Distance, radius)
		if err != nil {
			return err
		}
		rs, err := topology.StretchSample(randomAdj, weight, pairs, root.Derive("pairs-random"))
		if err != nil {
			return err
		}
		gs, err := topology.StretchSample(geomAdj, weight, pairs, root.Derive("pairs-geom"))
		if err != nil {
			return err
		}
		randomTrials[t] = stats.CDF(rs)
		geomTrials[t] = stats.CDF(gs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	randomSeries, err := aggregate("random-stretch", randomTrials)
	if err != nil {
		return nil, err
	}
	geomSeries, err := aggregate("geometric-stretch", geomTrials)
	if err != nil {
		return nil, err
	}
	res.Series = []Series{randomSeries, geomSeries}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"median stretch: random %.2f vs geometric %.2f",
		randomSeries.Median(), geomSeries.Median()))
	return res, nil
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
	if err := opt.validate(); err != nil {
		return nil, err
	}
	res := &Result{ID: id, Title: title, Options: opt}
	const dim = 2
	const pairs = 150
	// Flatten the (size, trial) sweep into one indexed job list.
	perSize := make([][][]float64, len(TheoremSizes))
	for i := range perSize {
		perSize[i] = make([][]float64, opt.Trials)
	}
	jobs := len(TheoremSizes) * opt.Trials
	err := parallel.ForEachIndexed(jobs, opt.Workers, func(_, j int) error {
		si, t := j/opt.Trials, j%opt.Trials
		n := TheoremSizes[si]
		root := rng.New(opt.Seed).DeriveIndexed(fmt.Sprintf("%s-%d", id, n), t)
		cube, err := latency.NewHypercube(n, dim, 100*time.Millisecond, root.Derive("points"))
		if err != nil {
			return err
		}
		var adj [][]int
		if geometric {
			adj, err = topology.Geometric(n, cube.Distance, geometricRadius(n, dim))
		} else {
			// Average degree ~ c log n mirrors p <= c log n / n.
			deg := int(math.Ceil(math.Log(float64(n)) / 2))
			if deg < 2 {
				deg = 2
			}
			adj, err = topology.RandomUndirected(n, deg, root.Derive("graph"))
		}
		if err != nil {
			return err
		}
		weight := func(u, v int) time.Duration { return cube.Delay(u, v) }
		ss, err := topology.StretchSample(adj, weight, pairs, root.Derive("pairs"))
		if err != nil {
			return err
		}
		perSize[si][t] = stats.CDF(ss)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, n := range TheoremSizes {
		s, err := aggregate(fmt.Sprintf("n=%d", n), perSize[si])
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes, fmt.Sprintf("n=%d: median stretch %.2f", n, s.Median()))
	}
	return res, nil
}

// annotateImprovement appends the headline Perigee-vs-random improvement
// note when both curves exist.
func annotateImprovement(res *Result) {
	randomS, err1 := res.SeriesByLabel(LabelRandom)
	var perigeeS Series
	var err2 error
	perigeeS, err2 = res.SeriesByLabel(LabelSubset)
	if err1 != nil || err2 != nil {
		return
	}
	rm, pm := randomS.Median(), perigeeS.Median()
	if rm <= 0 || math.IsInf(rm, 1) || math.IsInf(pm, 1) {
		return
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"Perigee-Subset median %.0f ms vs random %.0f ms: %.0f%% improvement",
		pm, rm, 100*(1-pm/rm)))
}
