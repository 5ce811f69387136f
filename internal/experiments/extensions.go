package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/parallel"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/topology"
)

// The extension experiments cover the paper's §6 discussion items that the
// published evaluation does not measure: incentive compatibility against
// free-riders, behavior under churn, and upload-bandwidth heterogeneity.

// FreerideSilentFraction is the share of free-riding nodes in the
// incentive experiment.
const FreerideSilentFraction = 0.2

// Freeride measures Perigee's incentive claim (§1): nodes that deviate by
// never relaying blocks get evicted from honest nodes' neighbor sets and
// therefore receive blocks later. The result contains network delay
// curves ("random", "Perigee-Subset") plus two receive-delay series under
// Perigee: honest vs silent nodes.
func Freeride(opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		ID:      "freeride",
		Title:   fmt.Sprintf("Extension: %.0f%% free-riding (non-relaying) nodes", 100*FreerideSilentFraction),
		Options: opt,
	}
	// Per-trial results, indexed so the parallel fan-out is scheduling
	// independent.
	var (
		randomTrials   = make([][]float64, opt.Trials)
		perigeeTrials  = make([][]float64, opt.Trials)
		honestRecvMs   = make([]float64, opt.Trials)
		silentRecvMs   = make([]float64, opt.Trials)
		honestRandomMs = make([]float64, opt.Trials)
		silentRandomMs = make([]float64, opt.Trials)
	)
	outer, innerOpt := splitWorkers(opt, opt.Trials)
	err := parallel.ForEachIndexed(opt.Trials, outer, func(_, t int) error {
		e, err := newEnv(innerOpt, t)
		if err != nil {
			return err
		}
		silent := make([]bool, opt.Nodes)
		perm := e.root.Derive("silent-nodes").Perm(opt.Nodes)
		for _, v := range perm[:int(FreerideSilentFraction*float64(opt.Nodes))] {
			silent[v] = true
		}

		// Static random baseline with the same silent population.
		randTbl, err := e.buildRandom(LabelRandom)
		if err != nil {
			return err
		}
		randEngine, err := newExtensionEngine(e, core.Subset, randTbl, silent, nil)
		if err != nil {
			return err
		}
		randDelays, err := randEngine.Delays(e.opt.Fraction, nil)
		if err != nil {
			return err
		}
		randomTrials[t] = delaysToSortedMs(randDelays)
		randRecv, err := randEngine.ReceiveDelays(receiveSources(e, silent))
		if err != nil {
			return err
		}
		honestRandomMs[t], silentRandomMs[t] = splitMeans(randRecv, silent)

		// Perigee run over the same network.
		periTbl, err := e.buildRandom(LabelSubset)
		if err != nil {
			return err
		}
		engine, err := newExtensionEngine(e, core.Subset, periTbl, silent, nil)
		if err != nil {
			return err
		}
		if _, err := engine.Run(e.opt.Rounds); err != nil {
			return err
		}
		periDelays, err := engine.Delays(e.opt.Fraction, nil)
		if err != nil {
			return err
		}
		perigeeTrials[t] = delaysToSortedMs(periDelays)
		recv, err := engine.ReceiveDelays(receiveSources(e, silent))
		if err != nil {
			return err
		}
		honestRecvMs[t], silentRecvMs[t] = splitMeans(recv, silent)
		return nil
	})
	if err != nil {
		return nil, err
	}
	randomSeries, err := aggregate(LabelRandom, randomTrials)
	if err != nil {
		return nil, err
	}
	perigeeSeries, err := aggregate(LabelSubset, perigeeTrials)
	if err != nil {
		return nil, err
	}
	res.Series = []Series{randomSeries, perigeeSeries}
	hr, sr := stats.Mean(honestRandomMs), stats.Mean(silentRandomMs)
	hp, sp := stats.Mean(honestRecvMs), stats.Mean(silentRecvMs)
	res.Notes = append(res.Notes,
		fmt.Sprintf("random: silent nodes receive blocks %.0f ms after mining vs %.0f ms for honest (%.0f%% penalty)",
			sr, hr, 100*(sr/hr-1)),
		fmt.Sprintf("Perigee: silent nodes receive at %.0f ms vs %.0f ms for honest (%.0f%% penalty)",
			sp, hp, 100*(sp/hp-1)),
		"Perigee punishes free-riders: deviating from the relay protocol costs reception latency (§1's incentive claim)")
	return res, nil
}

// receiveSources samples honest block sources for receive-delay
// measurement (miners are honest; a silent miner still announces).
func receiveSources(e *env, silent []bool) []int {
	var out []int
	for v := 0; v < e.opt.Nodes && len(out) < 200; v++ {
		if !silent[v] {
			out = append(out, v)
		}
	}
	return out
}

// splitMeans returns the mean finite receive delay (ms) of honest and
// silent nodes.
func splitMeans(recv []time.Duration, silent []bool) (honestMs, silentMs float64) {
	var hs, ss stats.Summary
	for v, d := range recv {
		if d == stats.InfDuration {
			continue
		}
		ms := float64(d) / float64(time.Millisecond)
		if silent[v] {
			ss.Add(ms)
		} else {
			hs.Add(ms)
		}
	}
	return hs.Mean(), ss.Mean()
}

// newExtensionEngine builds a Subset engine with optional silent mask and
// send intervals over an existing table.
func newExtensionEngine(e *env, method core.Method, tbl *topology.Table, silent []bool, sendInterval []time.Duration) (*core.Engine, error) {
	params := core.DefaultParams(method)
	if method != core.UCB {
		params.RoundBlocks = e.opt.RoundBlocks
	}
	return core.NewEngine(core.Config{
		Method:       method,
		Params:       params,
		Table:        tbl,
		Latency:      e.lat,
		Forward:      e.forward,
		Power:        e.power,
		Pinned:       e.pinned,
		Frozen:       e.frozen,
		Silent:       silent,
		SendInterval: sendInterval,
		Rand:         e.root.Derive("extension-engine-" + method.String()),
		Workers:      e.opt.Workers,

		ObservationWindow: e.opt.ObservationWindow,
	})
}

// ChurnFraction is the share of nodes replaced between rounds in the churn
// experiment.
const ChurnFraction = 0.05

// Churn measures Perigee under membership churn (§6): after every round,
// ChurnFraction of the nodes are replaced by fresh peers with empty state
// and random connections. Perigee must keep (most of) its advantage while
// continuously re-learning.
func Churn(opt Options) (*Result, error) {
	setup := func(*env) error { return nil }
	algos := []algo{
		{LabelRandom, func(e *env) ([]float64, error) {
			tbl, err := e.buildRandom(LabelRandom)
			if err != nil {
				return nil, err
			}
			return e.evalTopology(tbl)
		}},
		{LabelSubset + "-stable", func(e *env) ([]float64, error) {
			s, _, err := e.runPerigee(core.Subset)
			return s, err
		}},
		{LabelSubset + "-churn", func(e *env) ([]float64, error) {
			tbl, err := e.buildRandom("churn")
			if err != nil {
				return nil, err
			}
			engine, err := newExtensionEngine(e, core.Subset, tbl, nil, nil)
			if err != nil {
				return nil, err
			}
			churnRand := e.root.Derive("churn")
			k := int(ChurnFraction * float64(e.opt.Nodes))
			for r := 0; r < e.opt.Rounds; r++ {
				if _, err := engine.Step(); err != nil {
					return nil, err
				}
				perm := churnRand.Perm(e.opt.Nodes)
				if err := engine.Churn(perm[:k]); err != nil {
					return nil, err
				}
			}
			delays, err := engine.Delays(e.opt.Fraction, nil)
			if err != nil {
				return nil, err
			}
			return delaysToSortedMs(delays), nil
		}},
		{LabelIdeal, func(e *env) ([]float64, error) { return e.evalIdeal() }},
	}
	res, err := runFigure(opt, "churn",
		fmt.Sprintf("Extension: %.0f%% of nodes replaced every round", 100*ChurnFraction),
		setup, algos)
	if err != nil {
		return nil, err
	}
	randomS, err := res.SeriesByLabel(LabelRandom)
	if err != nil {
		return nil, err
	}
	stable, err := res.SeriesByLabel(LabelSubset + "-stable")
	if err != nil {
		return nil, err
	}
	churned, err := res.SeriesByLabel(LabelSubset + "-churn")
	if err != nil {
		return nil, err
	}
	if m := randomS.Median(); m > 0 && !math.IsInf(m, 1) {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"improvement vs random: %.0f%% without churn, %.0f%% with %.0f%% churn per round",
			100*(1-stable.Median()/m), 100*(1-churned.Median()/m), 100*ChurnFraction))
	}
	return res, nil
}

// Bandwidth upload heterogeneity: a quarter of the nodes serialize their
// uploads slowly (large block / thin uplink); Perigee should avoid relying
// on them even though link propagation delays are identical.
const (
	bandwidthSlowFraction     = 0.25
	bandwidthSlowSendInterval = 30 * time.Millisecond
	bandwidthFastSendInterval = 2 * time.Millisecond
)

// Bandwidth measures the upload-serialization scenario (§3.3's bandwidth
// skew): per-node send intervals model block transmission time.
func Bandwidth(opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	makeIntervals := func(e *env) []time.Duration {
		r := e.root.Derive("bandwidth")
		out := make([]time.Duration, e.opt.Nodes)
		for i := range out {
			if r.Float64() < bandwidthSlowFraction {
				out[i] = bandwidthSlowSendInterval
			} else {
				out[i] = bandwidthFastSendInterval
			}
		}
		return out
	}
	algos := []algo{
		{LabelRandom, func(e *env) ([]float64, error) {
			tbl, err := e.buildRandom(LabelRandom)
			if err != nil {
				return nil, err
			}
			engine, err := newExtensionEngine(e, core.Subset, tbl, nil, makeIntervals(e))
			if err != nil {
				return nil, err
			}
			delays, err := engine.Delays(e.opt.Fraction, nil)
			if err != nil {
				return nil, err
			}
			return delaysToSortedMs(delays), nil
		}},
		{LabelSubset, func(e *env) ([]float64, error) {
			tbl, err := e.buildRandom(LabelSubset)
			if err != nil {
				return nil, err
			}
			engine, err := newExtensionEngine(e, core.Subset, tbl, nil, makeIntervals(e))
			if err != nil {
				return nil, err
			}
			if _, err := engine.Run(e.opt.Rounds); err != nil {
				return nil, err
			}
			delays, err := engine.Delays(e.opt.Fraction, nil)
			if err != nil {
				return nil, err
			}
			return delaysToSortedMs(delays), nil
		}},
	}
	res, err := runFigure(opt, "bandwidth",
		fmt.Sprintf("Extension: %.0f%% slow uploaders (serialized sends, %v per neighbor)",
			100*bandwidthSlowFraction, bandwidthSlowSendInterval),
		nil, algos)
	if err != nil {
		return nil, err
	}
	annotateImprovement(res)
	return res, nil
}
