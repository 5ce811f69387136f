package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/stats"
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
	// One job per trial runs the static random baseline, which never
	// steps, and the Perigee arm, which runs its round budget, over the
	// same silent population.
	labels := [2]string{LabelRandom, LabelSubset}
	perTrial, regret, err := runTrials(opt, "freeride", nil, []arm[[2]freerideTrial]{{LabelSubset, func(e *env) (fts [2]freerideTrial, err error) {
		silent := make([]bool, opt.Nodes)
		perm := e.root.Derive("silent-nodes").Perm(opt.Nodes)
		for _, v := range perm[:int(FreerideSilentFraction*float64(opt.Nodes))] {
			silent[v] = true
		}
		for i, label := range labels {
			tbl, err := e.buildRandom(label)
			if err != nil {
				return fts, err
			}
			engine, rounds, err := e.engine(label, extensionStream, core.Subset, tbl,
				func(cfg *core.Config) { cfg.Silent = silent })
			if err != nil {
				return fts, err
			}
			if label == LabelSubset {
				if _, err := engine.Run(rounds); err != nil {
					return fts, err
				}
			}
			if fts[i].lambda, err = e.lambda(engine, e.opt.Fraction); err != nil {
				return fts, err
			}
			recv, err := engine.ReceiveDelays(receiveSources(e, silent))
			if err != nil {
				return fts, err
			}
			fts[i].honestMs, fts[i].silentMs = splitMeans(recv, silent)
		}
		return fts, nil
	}}})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:      "freeride",
		Title:   fmt.Sprintf("Extension: %.0f%% free-riding (non-relaying) nodes", 100*FreerideSilentFraction),
		Regret:  regret,
		Options: opt,
	}
	var honestMs, silentMs [2]float64
	for i, label := range labels {
		lambdas, honest, silent := make([][]float64, opt.Trials), make([]float64, opt.Trials), make([]float64, opt.Trials)
		for t, fts := range perTrial[0] {
			lambdas[t], honest[t], silent[t] = fts[i].lambda, fts[i].honestMs, fts[i].silentMs
		}
		s, err := aggregate(label, lambdas)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
		honestMs[i], silentMs[i] = stats.Mean(honest), stats.Mean(silent)
	}
	hr, sr := honestMs[0], silentMs[0]
	hp, sp := honestMs[1], silentMs[1]
	res.Notes = append(res.Notes,
		fmt.Sprintf("random: silent nodes receive blocks %.0f ms after mining vs %.0f ms for honest (%.0f%% penalty)",
			sr, hr, 100*(sr/hr-1)),
		fmt.Sprintf("Perigee: silent nodes receive at %.0f ms vs %.0f ms for honest (%.0f%% penalty)",
			sp, hp, 100*(sp/hp-1)),
		"Perigee punishes free-riders: deviating from the relay protocol costs reception latency (§1's incentive claim)")
	return res, nil
}

// freerideTrial is one Freeride curve's trial: its λ series and the mean
// receive delays (ms) of honest and silent nodes.
type freerideTrial struct {
	lambda             []float64
	honestMs, silentMs float64
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

// extensionStream names the engine RNG stream of the extension scenarios'
// Perigee-Subset engines.
const extensionStream = "extension-engine-" + LabelSubset

// ChurnFraction is the share of nodes replaced between rounds in the churn
// experiment.
const ChurnFraction = 0.05

// Churn measures Perigee under membership churn (§6): after every round,
// ChurnFraction of the nodes are replaced by fresh peers with empty state
// and random connections. Perigee must keep (most of) its advantage while
// continuously re-learning.
func Churn(opt Options) (*Result, error) {
	algos := []algo{
		randomAlgo,
		perigeeAlgo(LabelSubset+"-stable", core.Subset),
		{LabelSubset + "-churn", func(e *env) ([]float64, error) {
			tbl, err := e.buildRandom("churn")
			if err != nil {
				return nil, err
			}
			engine, rounds, err := e.engine(LabelSubset+"-churn", extensionStream, core.Subset, tbl)
			if err != nil {
				return nil, err
			}
			churnRand := e.root.Derive("churn")
			k := int(ChurnFraction * float64(e.opt.Nodes))
			for r := 0; r < rounds; r++ {
				if _, err := engine.Step(); err != nil {
					return nil, err
				}
				perm := churnRand.Perm(e.opt.Nodes)
				if err := engine.Churn(perm[:k]); err != nil {
					return nil, err
				}
			}
			return e.lambda(engine, e.opt.Fraction)
		}},
		idealAlgo,
	}
	res, err := runFigure(opt, "churn",
		fmt.Sprintf("Extension: %.0f%% of nodes replaced every round", 100*ChurnFraction),
		nil, algos)
	if err != nil {
		return nil, err
	}
	randomS, stable, churned := res.Series[0], res.Series[1], res.Series[2]
	if m := randomS.Median(); m > 0 && !math.IsInf(m, 1) {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"improvement vs random: %.0f%% without churn, %.0f%% with %.0f%% churn per round",
			improvementPct(stable.Median(), m), improvementPct(churned.Median(), m), 100*ChurnFraction))
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
	slowUploads := func(e *env) func(*core.Config) {
		r := e.root.Derive("bandwidth")
		intervals := make([]time.Duration, e.opt.Nodes)
		for i := range intervals {
			if r.Float64() < bandwidthSlowFraction {
				intervals[i] = bandwidthSlowSendInterval
			} else {
				intervals[i] = bandwidthFastSendInterval
			}
		}
		return func(cfg *core.Config) { cfg.SendInterval = intervals }
	}
	algos := []algo{
		{LabelRandom, func(e *env) ([]float64, error) {
			tbl, err := e.buildRandom(LabelRandom)
			if err != nil {
				return nil, err
			}
			engine, _, err := e.engine(LabelRandom, extensionStream, core.Subset, tbl, slowUploads(e))
			if err != nil {
				return nil, err
			}
			return e.lambda(engine, e.opt.Fraction)
		}},
		{LabelSubset, func(e *env) ([]float64, error) {
			tbl, err := e.buildRandom(LabelSubset)
			if err != nil {
				return nil, err
			}
			s, _, err := e.runArm(LabelSubset, extensionStream, core.Subset, tbl, slowUploads(e))
			return s, err
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
