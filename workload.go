package perigee

import (
	"cmp"
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/paper"
	"github.com/perigee-net/perigee/internal/workload"
)

// WorkloadReport is one continuous-time workload run's fork economics:
// blocks mined vs canonical, the stale-block and fork rates, reorg depth,
// and the mining-revenue split. It marshals to JSON.
type WorkloadReport = workload.Report

// WorkloadTrace is a stream of block-production events in nondecreasing
// time order, consumed by RunWorkload. Built-in arrival processes produce
// infinite traces; a replayed trace file is finite.
type WorkloadTrace = workload.Trace

// WorkloadArrival is one block-production event: at simulated time At,
// node Miner finds a block on its current longest-chain tip.
type WorkloadArrival = workload.Arrival

// ArrivalProcess constructs the block-production schedule for a workload
// run: the per-node hash-power vector and the mean block interval in, a
// trace of timed mining events out. PoissonArrivals is the standard
// model; GammaArrivals and WeibullArrivals vary the inter-arrival shape,
// and any custom implementation plugs in via WithWorkload.
type ArrivalProcess interface {
	// Arrivals returns the trace. Implementations must draw all
	// randomness from r so equal seeds replay bit-for-bit.
	Arrivals(power []float64, mean time.Duration, r *Rand) (WorkloadTrace, error)
}

// ArrivalProcessFunc adapts a plain function to the ArrivalProcess
// interface.
type ArrivalProcessFunc func(power []float64, mean time.Duration, r *Rand) (WorkloadTrace, error)

// Arrivals implements ArrivalProcess.
func (f ArrivalProcessFunc) Arrivals(power []float64, mean time.Duration, r *Rand) (WorkloadTrace, error) {
	return f(power, mean, r)
}

// PoissonArrivals is the standard proof-of-work mining model: exponential
// inter-arrival times (a Poisson process, matching difficulty
// retargeting), miners drawn proportionally to hash power. The default
// workload.
func PoissonArrivals() ArrivalProcess {
	return ArrivalProcessFunc(func(power []float64, mean time.Duration, r *Rand) (WorkloadTrace, error) {
		return workload.NewPoisson(r, power, mean)
	})
}

// GammaArrivals is a Gamma(shape) renewal process normalized to the mean
// block interval: shape > 1 is more regular than Poisson, shape < 1
// burstier, shape = 1 recovers the exponential.
func GammaArrivals(shape float64) ArrivalProcess {
	return ArrivalProcessFunc(func(power []float64, mean time.Duration, r *Rand) (WorkloadTrace, error) {
		return workload.NewGamma(r, power, mean, shape)
	})
}

// WeibullArrivals is a Weibull(shape) renewal process normalized to the
// mean block interval; shape < 1 has a heavy tail of long quiet gaps.
func WeibullArrivals(shape float64) ArrivalProcess {
	return ArrivalProcessFunc(func(power []float64, mean time.Duration, r *Rand) (WorkloadTrace, error) {
		return workload.NewWeibull(r, power, mean, shape)
	})
}

// RunWorkload drives the network with a continuous-time blockchain
// workload for the given span of simulated time: miners produce blocks on
// the arrival process's schedule (weighted by hash power), blocks race
// through the simulated network, every node maintains a longest-chain
// first-seen view, and Perigee topology rounds fire on elapsed simulated
// time — every RoundBlocks × block-interval. Blocks mined within one
// another's propagation delay fork the chain; the report prices that in
// stale blocks, fork events, reorgs, and revenue skew.
//
// The workload composes with the network's other options (selector,
// latency, power, adversary); configure it with WithWorkload,
// WithBlockInterval, and WithTraceFile. Each call advances the topology
// from its current state and draws a fresh arrival stream, so runs are
// reproducible per (seed, call index) but successive calls differ.
func (n *Network) RunWorkload(duration time.Duration) (*WorkloadReport, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("perigee: workload duration %v must be positive", duration)
	}
	interval := cmp.Or(n.blockInterval, paper.BlockInterval)
	var trace WorkloadTrace
	if n.traceFile != "" {
		tf, err := workload.ReadTraceFile(n.traceFile)
		if err != nil {
			return nil, fmt.Errorf("perigee: %w", err)
		}
		if nodes := n.engine.Table().N(); tf.Nodes != nodes {
			return nil, fmt.Errorf("perigee: trace file %s recorded for %d nodes, network has %d", n.traceFile, tf.Nodes, nodes)
		}
		trace = tf.Trace()
	} else {
		proc := n.workloadProc
		if proc == nil {
			proc = PoissonArrivals()
		}
		var err error
		trace, err = proc.Arrivals(n.engine.Power(), interval, n.workloadRand.DeriveIndexed("run", n.workloadRuns))
		if err != nil {
			return nil, fmt.Errorf("perigee: building arrival trace: %w", err)
		}
	}
	n.workloadRuns++
	return paper.RunWorkload(n.engine, trace, duration, interval)
}
