package perigee

import (
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/hashpower"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/paper"
	"github.com/perigee-net/perigee/internal/rng"
)

// Rand is the deterministic, splittable random stream handed to model
// callbacks (PowerDist, ValidationDist, Dynamics). It embeds the standard
// math/rand/v2 drawing methods (Float64, IntN, Perm, ExpFloat64, ...) plus
// Derive/DeriveIndexed for carving out independent sub-streams. Every model receives its own stream derived from the
// network seed, so adding a random draw in one model never perturbs
// another, and equal seeds reproduce runs bit-for-bit.
type Rand = rng.RNG

// LatencyModel yields the constant one-way delay of sending a block
// between two directly-connected nodes. Implementations must be symmetric
// up to the last rounding: Delay(u, v) and Delay(v, u) evaluate the same
// terms, but may sum them in a different order, so the two may differ by a
// nanosecond (the simulator prices each directed edge from its own
// direction). Delays must be non-negative; N reports how many nodes the
// model covers and must be at least the network size.
// A pair's delay must not change during a run: the simulator asks for it
// when the link appears and keeps the answer for as long as the link lives.
// Delay may be called from several goroutines at once: the simulator's
// broadcast workers evaluate it concurrently.
//
// The default is the paper's geographic model (§3.1): nodes embedded near
// regional hubs with last-mile access delays and per-link route noise. Any
// custom environment — a measured latency matrix, a synthetic metric
// space, an overlay with fast-path overrides — plugs in via WithLatency.
type LatencyModel = latency.Model

// GeographicLatency samples the paper's geographic latency model (§3.1)
// for n nodes from the given seed: nodes embedded near regional hubs with
// last-mile access delays and per-link route noise. It is the model New
// uses by default (with the network seed); the standalone constructor
// exists so other drivers — most notably latency injection into live
// nodes via node.WithLatencyInjection — can run against the same
// environment the simulator evaluates.
func GeographicLatency(n int, seed uint64) (LatencyModel, error) {
	_, lat, err := paper.Geographic(n, rng.New(seed))
	return lat, err
}

// latencyMatrix is a LatencyModel backed by an explicit n-by-n matrix.
type latencyMatrix struct {
	d [][]time.Duration
}

// LatencyMatrix builds a LatencyModel from a measured (or otherwise
// explicit) square delay matrix, the form in which real-world P2P
// measurement datasets (iPlane, WonderNetwork, Ethereum crawls) arrive.
// The matrix must be square, symmetric, zero on the diagonal, and
// non-negative everywhere.
func LatencyMatrix(delays [][]time.Duration) (LatencyModel, error) {
	n := len(delays)
	if n == 0 {
		return nil, fmt.Errorf("perigee: latency matrix is empty")
	}
	for i, row := range delays {
		if len(row) != n {
			return nil, fmt.Errorf("perigee: latency matrix row %d has %d entries, want %d", i, len(row), n)
		}
		if row[i] != 0 {
			return nil, fmt.Errorf("perigee: latency matrix diagonal entry (%d, %d) is %v, want 0", i, i, row[i])
		}
		for j, d := range row {
			if d < 0 {
				return nil, fmt.Errorf("perigee: negative latency %v at (%d, %d)", d, i, j)
			}
			if delays[j][i] != d {
				return nil, fmt.Errorf("perigee: latency matrix asymmetric at (%d, %d): %v vs %v", i, j, d, delays[j][i])
			}
		}
	}
	// Deep-copy so later caller mutations cannot skew a running simulation.
	cp := make([][]time.Duration, n)
	for i, row := range delays {
		cp[i] = append([]time.Duration(nil), row...)
	}
	return &latencyMatrix{d: cp}, nil
}

func (m *latencyMatrix) Delay(u, v int) time.Duration { return m.d[u][v] }
func (m *latencyMatrix) N() int                       { return len(m.d) }

// PowerDist draws the per-node mining-power vector. The vector may be on
// any non-negative scale (it is normalized internally); a node mines the
// next block with probability proportional to its power (§2.1).
type PowerDist interface {
	// Power returns one power value per node.
	Power(n int, r *Rand) ([]float64, error)
}

// PowerFunc adapts a plain function to the PowerDist interface.
type PowerFunc func(n int, r *Rand) ([]float64, error)

// Power implements PowerDist.
func (f PowerFunc) Power(n int, r *Rand) ([]float64, error) { return f(n, r) }

// UniformPower gives every node equal power (§5.2, Figure 3a). This is the
// default.
func UniformPower() PowerDist {
	return PowerFunc(func(n int, _ *Rand) ([]float64, error) {
		return hashpower.Uniform(n)
	})
}

// ExponentialPower draws each node's power from Exponential(1), normalized
// to sum to 1 (Figure 3b).
func ExponentialPower() PowerDist {
	return PowerFunc(func(n int, r *Rand) ([]float64, error) {
		return hashpower.Exponential(n, r)
	})
}

// PoolsPower assigns powerFrac of the total power to a random
// round(poolFrac*n)-node miner set, split evenly, with the remainder
// spread over everyone else. PoolsPower(0.1, 0.9) is the paper's
// Figure 4(b) mining-pool setting.
func PoolsPower(poolFrac, powerFrac float64) PowerDist {
	return PowerFunc(func(n int, r *Rand) ([]float64, error) {
		power, _, err := hashpower.Pools(n, poolFrac, powerFrac, r)
		return power, err
	})
}

// PowerVector uses a fixed, externally-measured power vector (e.g. pool
// shares scraped from a block explorer). The vector length must equal the
// network size.
func PowerVector(power []float64) PowerDist {
	cp := append([]float64(nil), power...)
	return PowerFunc(func(n int, _ *Rand) ([]float64, error) {
		if len(cp) != n {
			return nil, fmt.Errorf("perigee: power vector covers %d nodes, want %d", len(cp), n)
		}
		return append([]float64(nil), cp...), nil
	})
}

// ValidationDist draws the per-node block validation delay Δ_v — the time
// a node spends checking a block before relaying it (§2.1).
type ValidationDist interface {
	// Validation returns one delay per node.
	Validation(n int, r *Rand) ([]time.Duration, error)
}

// ValidationFunc adapts a plain function to the ValidationDist interface.
type ValidationFunc func(n int, r *Rand) ([]time.Duration, error)

// Validation implements ValidationDist.
func (f ValidationFunc) Validation(n int, r *Rand) ([]time.Duration, error) { return f(n, r) }

// FixedValidation gives every node exactly d, the paper's §5 setting
// ("each node has a mean block processing time of 50 ms"). This is the
// default with d = 50ms.
func FixedValidation(d time.Duration) ValidationDist {
	return ValidationFunc(func(n int, _ *Rand) ([]time.Duration, error) {
		if d < 0 {
			return nil, fmt.Errorf("perigee: negative validation delay %v", d)
		}
		return paper.Forward(n, d), nil
	})
}

// ExponentialValidation draws each node's delay from Exponential(mean) —
// the heterogeneous-processing-power extension motivated in §1, under
// which Perigee additionally learns to route around slow validators.
func ExponentialValidation(mean time.Duration) ValidationDist {
	return ValidationFunc(func(n int, r *Rand) ([]time.Duration, error) {
		if mean < 0 {
			return nil, fmt.Errorf("perigee: negative mean validation delay %v", mean)
		}
		return paper.ExponentialForward(n, mean, r), nil
	})
}

// ValidationVector uses fixed, externally-measured per-node validation
// delays. The vector length must equal the network size.
func ValidationVector(delays []time.Duration) ValidationDist {
	cp := append([]time.Duration(nil), delays...)
	return ValidationFunc(func(n int, _ *Rand) ([]time.Duration, error) {
		if len(cp) != n {
			return nil, fmt.Errorf("perigee: validation vector covers %d nodes, want %d", len(cp), n)
		}
		for i, d := range cp {
			if d < 0 {
				return nil, fmt.Errorf("perigee: negative validation delay %v at node %d", d, i)
			}
		}
		return append([]time.Duration(nil), cp...), nil
	})
}
