// Package hashpower models the distribution of mining power across nodes
// and the sampling of block sources.
//
// The paper's evaluation uses three settings: uniform power (Fig 3a),
// exponentially-distributed power normalized to sum 1 (Fig 3b), and a
// mining-pool setting where 10% of the nodes hold 90% of the power
// (Fig 4b). The probability that a node mines the next block is
// proportional to its power (§2.1).
package hashpower

import (
	"fmt"
	"sort"

	"github.com/perigee-net/perigee/internal/rng"
)

// Uniform returns equal power 1/n for each of n nodes.
func Uniform(n int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("hashpower: n = %d must be positive", n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 / float64(n)
	}
	return out, nil
}

// Exponential draws each node's power from an Exponential(1) distribution
// and normalizes the vector to sum to 1, matching §5.2.
func Exponential(n int, r *rng.RNG) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("hashpower: n = %d must be positive", n)
	}
	if r == nil {
		return nil, fmt.Errorf("hashpower: nil rng")
	}
	out := make([]float64, n)
	var total float64
	for i := range out {
		out[i] = r.ExpFloat64()
		total += out[i]
	}
	for i := range out {
		out[i] /= total
	}
	return out, nil
}

// Pools assigns powerFrac of the total power to a randomly chosen set of
// round(poolFrac*n) "miner" nodes (split uniformly among them) and the
// remaining 1-powerFrac to everyone else. It returns the power vector and
// the sorted miner indices. With poolFrac=0.1, powerFrac=0.9 this is the
// paper's Figure 4(b) setting.
func Pools(n int, poolFrac, powerFrac float64, r *rng.RNG) (power []float64, miners []int, err error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("hashpower: n = %d must be positive", n)
	}
	if r == nil {
		return nil, nil, fmt.Errorf("hashpower: nil rng")
	}
	if poolFrac <= 0 || poolFrac > 1 {
		return nil, nil, fmt.Errorf("hashpower: pool fraction %v outside (0, 1]", poolFrac)
	}
	if powerFrac < 0 || powerFrac > 1 {
		return nil, nil, fmt.Errorf("hashpower: power fraction %v outside [0, 1]", powerFrac)
	}
	k := int(poolFrac*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	perm := r.Perm(n)
	miners = append([]int(nil), perm[:k]...)
	sort.Ints(miners)
	power = make([]float64, n)
	rest := n - k
	for i := range power {
		if rest > 0 {
			power[i] = (1 - powerFrac) / float64(rest)
		}
	}
	for _, m := range miners {
		power[m] = powerFrac / float64(k)
	}
	if rest == 0 {
		// Everyone is a miner; normalize to 1 regardless of powerFrac.
		for i := range power {
			power[i] = 1 / float64(n)
		}
	}
	return power, miners, nil
}

// Sampler draws block sources in proportion to node power.
type Sampler struct {
	cum []float64
}

// NewSampler validates the power vector (non-negative, positive sum) and
// precomputes cumulative weights for O(log n) sampling.
func NewSampler(power []float64) (*Sampler, error) {
	if len(power) == 0 {
		return nil, fmt.Errorf("hashpower: empty power vector")
	}
	cum := make([]float64, len(power))
	acc := 0.0
	for i, p := range power {
		if p < 0 {
			return nil, fmt.Errorf("hashpower: negative power %v at node %d", p, i)
		}
		acc += p
		cum[i] = acc
	}
	if acc <= 0 {
		return nil, fmt.Errorf("hashpower: total power is zero")
	}
	for i := range cum {
		cum[i] /= acc
	}
	cum[len(cum)-1] = 1
	return &Sampler{cum: cum}, nil
}

// Sample returns a node index drawn proportionally to power.
func (s *Sampler) Sample(r *rng.RNG) int {
	u := r.Float64()
	return sort.SearchFloat64s(s.cum, u)
}
