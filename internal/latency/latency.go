// Package latency provides the point-to-point delay models of the paper's
// network model (§2.1, §3.1):
//
//   - Geographic: a 7x7 inter-region one-way latency matrix in the spirit of
//     the iPlane measurement dataset, with deterministic symmetric per-link
//     jitter (the paper re-samples link latencies per trial).
//   - Hypercube: nodes embedded uniformly in [0,1]^d with Euclidean
//     distances as delays — the theoretical model behind Theorems 1 and 2.
//   - MutableLatency: any base model under a swappable delay transform,
//     used for fast miner-to-miner links (Fig 4b), relay trees (Fig 4c)
//     and adversaries that sever or inflate links mid-run.
//
// A caller that needs δ(u, v) asks for that direction; the simulator
// prices each directed edge from its own direction.
package latency

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/rng"
)

// Model yields the one-way delay of sending a block between two
// directly-connected nodes. Its contract (symmetry, non-negative and
// constant delays, coverage, concurrent calls) is stated once, on the
// public alias perigee.LatencyModel.
type Model interface {
	// Delay returns the one-way latency between nodes u and v.
	Delay(u, v int) time.Duration
	// N returns the number of nodes the model covers.
	N() int
}

// Mode selects how a simulator evaluates the latency model on its edges.
//
// Precomputed mode keeps one delay per directed edge, so every hop of the
// broadcast hot loop is a flat array read — the fastest option, at O(E)
// memory per simulator. A delay is computed when its edge first appears in
// the topology and carried across reconfigurations for as long as the edge
// survives, so a round of rewiring costs Model.Delay calls only for the
// edges it added; a model whose delays change must tell the simulator to
// forget what it carries. Streaming mode keeps no per-edge array and
// evaluates Model.Delay on the fly from the node coordinates each time an
// announcement crosses an edge: O(1) latency memory regardless of network
// size, at the cost of recomputing embedded distances (and, for Geographic,
// the hashed per-link jitter) per event. Both modes produce bit-for-bit
// identical delays — they call the same Delay method — so results never
// depend on the mode, only speed and memory do.
//
// Auto, the default, picks Precomputed below StreamingAutoThreshold nodes
// and Streaming at or above it. Streaming is purely a memory mode; anyone
// may force it at any size.
type Mode int

const (
	// Auto resolves to Precomputed below StreamingAutoThreshold nodes and
	// to Streaming at or above it.
	Auto Mode = iota
	// Precomputed holds per-edge delays, computed when an edge appears.
	Precomputed
	// Streaming evaluates Model.Delay per event, storing nothing.
	Streaming
)

// StreamingAutoThreshold is the node count at which Auto switches from
// precomputed per-edge delays to streaming evaluation: a million nodes at
// the paper's degrees is 16M directed edges, a 128 MB delay array, where
// O(1) latency memory starts to matter. Below it the array is smaller than
// the CSR index and one Broadcaster's per-edge buffer it sits beside.
const StreamingAutoThreshold = 1_000_000

// String returns the mode's name.
func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case Precomputed:
		return "precomputed"
	case Streaming:
		return "streaming"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Valid reports whether m is a defined mode.
func (m Mode) Valid() bool { return m >= Auto && m <= Streaming }

// Resolve maps Auto to a concrete mode for an n-node topology.
func (m Mode) Resolve(n int) Mode {
	if m != Auto {
		return m
	}
	if n >= StreamingAutoThreshold {
		return Streaming
	}
	return Precomputed
}

// DelayPair returns Delay(u, v) and Delay(v, u), bit for bit: from one
// Geographic.DelayPair evaluation when m is Geographic, and from two Delay
// calls otherwise.
func DelayPair(m Model, u, v int) (uv, vu time.Duration) {
	if g, ok := m.(*Geographic); ok {
		return g.DelayPair(u, v)
	}
	return m.Delay(u, v), m.Delay(v, u)
}

// regionCenters places each region's hub in a 2-dimensional latency space
// (coordinates in milliseconds of one-way delay). Pairwise center
// distances approximate published inter-continental one-way latencies
// (iPlane / WonderNetwork style tables) up to 2D realizability.
var regionCenters = [geo.NumRegions][2]float64{
	geo.NorthAmerica: {0, 0},
	geo.SouthAmerica: {25, 78},
	geo.Europe:       {50, 0},
	geo.Asia:         {135, 25},
	geo.Africa:       {75, 55},
	geo.China:        {120, -20},
	geo.Oceania:      {150, 75},
}

// regionRadii is the scatter of a region's nodes around its hub, in ms.
// Geographically larger/sparser regions spread wider.
var regionRadii = [geo.NumRegions]float64{
	geo.NorthAmerica: 25,
	geo.SouthAmerica: 25,
	geo.Europe:       15,
	geo.Asia:         30,
	geo.Africa:       30,
	geo.China:        18,
	geo.Oceania:      20,
}

// Geographic models point-to-point latency with the paper's own
// metric-embedding view (§3.1) made concrete: every node is embedded at
// its region's hub plus a random in-region offset, and has an individual
// last-mile access delay. The one-way latency between two nodes is
//
//	δ(u, v) = (‖pos_u − pos_v‖ + access_u + access_v) · jitter(u, v)
//
// which is symmetric up to the order the access delays are added in,
// bimodal across region boundaries (Figure 5), and —
// unlike a flat region matrix — heterogeneous within a region pair, the
// structure Perigee exploits (nodes near hubs with fast access links make
// better neighbors for everyone).
type Geographic struct {
	universe *geo.Universe
	stream   *rng.RNG
	pos      [][2]float64
	accessMs []float64 // per node, ms
}

const (
	// jitter is the relative uniform jitter amplitude applied
	// (symmetrically and deterministically) to each link: each link's
	// latency is scaled by a factor in [0.9, 1.1].
	jitter = 0.1
	// routeSigma is σ of the per-link LogNormal(−σ²/2, σ) routing-
	// inefficiency factor. Internet latencies deviate multiplicatively
	// from clean metric embeddings (peering, indirect BGP routes, triangle-
	// inequality violations); a link is what it is until measured, which
	// is exactly the uncertainty Perigee's bandit exploration resolves.
	routeSigma = 0.45
)

// The per-node last-mile delay distribution, in ms, mirrors the skew of
// measured Bitcoin node connectivity (bandwidths of 3–186 Mbps,
// proxied/VPN/Tor peers, and the INV/GETDATA exchange paid on every hop):
// a fast majority of well-hosted servers near exchange points sits within
// a few ms of its regional hub, drawing Exponential(fastMeanMs); a slow
// quarter behind consumer NAT, VPN or Tor draws slowBaseMs +
// Exponential(slowMeanMs). Multi-hop routes through slow nodes pay this
// cost repeatedly — the heterogeneity Perigee learns to avoid.
const (
	fastMeanMs   = 4
	slowFraction = 0.25
	slowBaseMs   = 40
	slowMeanMs   = 80
)

// sampleAccess draws one node's access delay in ms.
func sampleAccess(r *rng.RNG) float64 {
	if r.Float64() < slowFraction {
		return slowBaseMs + r.ExpFloat64()*slowMeanMs
	}
	return r.ExpFloat64() * fastMeanMs
}

// NewGeographic builds the model over a universe. The rng stream seeds
// node positions, access delays, and per-link jitter; deriving a fresh
// stream per trial reproduces the paper's "independently sampled link
// latencies" across trials.
func NewGeographic(u *geo.Universe, stream *rng.RNG) (*Geographic, error) {
	if u == nil {
		return nil, fmt.Errorf("latency: nil universe")
	}
	if stream == nil {
		return nil, fmt.Errorf("latency: nil rng stream")
	}
	g := &Geographic{universe: u, stream: stream}
	n := u.N()
	g.pos = make([][2]float64, n)
	g.accessMs = make([]float64, n)
	posStream := stream.Derive("positions")
	accStream := stream.Derive("access")
	for i := 0; i < n; i++ {
		region := u.Region(i)
		cx, cy := regionCenters[region][0], regionCenters[region][1]
		radius := regionRadii[region]
		// Uniform point in the region disk via rejection sampling.
		var dx, dy float64
		for {
			dx = 2*posStream.Float64() - 1
			dy = 2*posStream.Float64() - 1
			if dx*dx+dy*dy <= 1 {
				break
			}
		}
		g.pos[i] = [2]float64{cx + dx*radius, cy + dy*radius}
		g.accessMs[i] = sampleAccess(accStream)
	}
	return g, nil
}

// N implements Model.
func (g *Geographic) N() int { return g.universe.N() }

// Delay implements Model.
func (g *Geographic) Delay(u, v int) time.Duration {
	if u == v {
		return 0
	}
	return g.link(u, v).oneWay(g.accessMs[u], g.accessMs[v])
}

// DelayPair returns Delay(u, v) and Delay(v, u). The distance, the jitter
// and the route factor (a square root, a log, a cos and an exp between
// them) are evaluated once, and each direction adds the two access delays
// in its own order, as Delay does, so both are Delay's bit for bit.
func (g *Geographic) DelayPair(u, v int) (uv, vu time.Duration) {
	if u == v {
		return 0, 0
	}
	l := g.link(u, v)
	au, av := g.accessMs[u], g.accessMs[v]
	return l.oneWay(au, av), l.oneWay(av, au)
}

// linkTerms are the factors of δ that the unordered pair {u, v} fixes: the
// embedded distance in ms, the jitter and the log-normal route factor.
type linkTerms struct{ distMs, jitter, route float64 }

// link evaluates the pair's shared terms. Each is the same bit for bit
// whichever way round the pair is given: the coordinate differences of
// (v, u) are those of (u, v) negated, and both factors hash the unordered
// pair.
func (g *Geographic) link(u, v int) linkTerms {
	dx := g.pos[u][0] - g.pos[v][0]
	dy := g.pos[u][1] - g.pos[v][1]
	return linkTerms{
		distMs: math.Sqrt(dx*dx + dy*dy),
		jitter: g.stream.PairJitter(u, v, jitter),
		route:  g.stream.PairLogNormal(u, v, routeSigma),
	}
}

// oneWay is the delay of the direction whose sender has access delay
// fromMs and whose receiver has toMs.
func (l linkTerms) oneWay(fromMs, toMs float64) time.Duration {
	ms := l.distMs + fromMs + toMs
	ms *= l.jitter
	ms *= l.route
	return time.Duration(ms * float64(time.Millisecond))
}

// Hypercube embeds n nodes uniformly at random in [0,1]^d and reports
// scaled Euclidean distances, the metric-embedding model of §3.1.
type Hypercube struct {
	points [][]float64
	scale  time.Duration
}

// NewHypercube samples n points in [0,1]^dim; a unit distance (the side of
// the cube) corresponds to scale.
func NewHypercube(n, dim int, scale time.Duration, stream *rng.RNG) (*Hypercube, error) {
	if n <= 0 {
		return nil, fmt.Errorf("latency: hypercube size %d must be positive", n)
	}
	if dim <= 0 {
		return nil, fmt.Errorf("latency: hypercube dimension %d must be positive", dim)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("latency: hypercube scale %v must be positive", scale)
	}
	if stream == nil {
		return nil, fmt.Errorf("latency: nil rng stream")
	}
	points := make([][]float64, n)
	backing := make([]float64, n*dim)
	for i := range points {
		points[i] = backing[i*dim : (i+1)*dim : (i+1)*dim]
		for d := range points[i] {
			points[i][d] = stream.Float64()
		}
	}
	return &Hypercube{points: points, scale: scale}, nil
}

// N implements Model.
func (h *Hypercube) N() int { return len(h.points) }

// Delay implements Model.
func (h *Hypercube) Delay(u, v int) time.Duration {
	return time.Duration(h.Distance(u, v) * float64(h.scale))
}

// Distance returns the Euclidean distance between nodes u and v in the
// embedded space (unscaled).
func (h *Hypercube) Distance(u, v int) float64 {
	var sum float64
	pu, pv := h.points[u], h.points[v]
	for d := range pu {
		diff := pu[d] - pv[d]
		sum += diff * diff
	}
	return math.Sqrt(sum)
}

// MutableLatency wraps a base latency model with a swappable transform,
// letting a strategy sever or inflate links mid-run, or a scenario pin
// chosen pairs to new delays. With no transform installed it is a
// passthrough. It is safe for concurrent readers; the transform is swapped
// between rounds, never during a broadcast.
type MutableLatency struct {
	base Model

	mu        sync.RWMutex
	transform func(u, v int, d time.Duration) time.Duration
}

// NewMutableLatency wraps base with no transform installed.
func NewMutableLatency(base Model) *MutableLatency {
	return &MutableLatency{base: base}
}

// Delay returns the (possibly transformed) one-way latency of (u, v).
func (m *MutableLatency) Delay(u, v int) time.Duration {
	d := m.base.Delay(u, v)
	m.mu.RLock()
	t := m.transform
	m.mu.RUnlock()
	if t != nil {
		d = t(u, v, d)
	}
	return d
}

// N returns the coverage of the base model.
func (m *MutableLatency) N() int { return m.base.N() }

// SetTransform installs (or, with nil, removes) the delay transform. The
// transform must be symmetric in (u, v) and return non-negative delays,
// preserving the Model contract. A model whose delays change must
// invalidate: callers follow up with Control.InvalidateNetwork, because
// drivers carry an edge's delay for as long as the edge survives and
// surviving edges are otherwise not re-evaluated.
func (m *MutableLatency) SetTransform(t func(u, v int, d time.Duration) time.Duration) {
	m.mu.Lock()
	m.transform = t
	m.mu.Unlock()
}

// Constant is a model in which every distinct pair has the same delay;
// useful in tests and as a degenerate baseline.
type Constant struct {
	Nodes int
	D     time.Duration
}

// N implements Model.
func (c Constant) N() int { return c.Nodes }

// Delay implements Model.
func (c Constant) Delay(u, v int) time.Duration {
	if u == v {
		return 0
	}
	return c.D
}
