// Package core implements the Perigee protocol (§4): per-round neighbor
// observation sets, the three scoring methods (Vanilla §4.2.1, UCB §4.2.2,
// Subset §4.3), and the engine that runs the protocol synchronously over a
// simulated network.
//
// Subset scoring is the largest cost of a simulated round, and most of it
// is work that cannot change the answer: a candidate's joint score is a high
// percentile of min(its offsets, the chosen set's), which no block where the
// chosen set is already fast can reach. SubsetSelect plans that percentile
// once per call (stats.NewQuantile) and scores candidates over the blocks
// where the chosen set is still slow, slowest first, through the plan's
// OfMinOrdered, which says when the blocks it has read settle the percentile
// — then the score is the full scan's to the bit — and otherwise leaves the
// candidate to the scan, OfMin. Which blocks are listed is a guess that only
// decides how often the scan runs; no choice depends on it. Quantiles too
// deep for a short buffer of largest values (the median; 0.9 of a live
// node's 4096-block window) are scanned throughout.
//
// A quantile that reads only the two largest minima (stats.Quantile.TwoSlot:
// the 0.9-quantile of an observation window of up to 11 blocks, as large
// simulations keep) is scanned throughout too, over every row: that scan
// keeps the two without a data-dependent branch, and over a short window it
// costs less than building a list or weighing distinct rows would save.
//
// Two blocks of a round from one miner are one flood, so their observation
// rows are equal, and in the paper's pools setting most of a round's blocks
// repeat a miner. TimedRound.BroadcastAll records the round's distinct rows
// and how many rows each stands for, and Finish attaches that list to every
// node's Observations when the round repeats a miner and no Tamper hook can
// edit one copy of a row but not the other. SubsetSelect then scores the
// distinct rows only, each counted as often as it occurs, through the
// weighted forms of the same kernels (the plan's OfMinWeighted and its
// ordered pass); a percentile of a multiset depends only on its values and
// their counts, so every choice is the full matrix's to the bit. A round
// that drops less than a quarter of its rows is scored row by row.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/perigee-net/perigee/internal/stats"
)

// Method selects the neighbor-scoring rule.
type Method int

// The three scoring methods proposed by the paper.
const (
	// Vanilla scores each neighbor independently by the 90th percentile of
	// its time-normalized block arrival offsets (§4.2.1).
	Vanilla Method = iota
	// UCB maintains per-neighbor confidence intervals over accumulated
	// offsets and evicts a neighbor only when the intervals separate
	// (§4.2.2).
	UCB
	// Subset greedily selects the group of neighbors whose joint delivery
	// times complement each other (§4.3).
	Subset
)

// String returns the method's name as used in the paper's figures.
func (m Method) String() string {
	switch m {
	case Vanilla:
		return "Perigee-Vanilla"
	case UCB:
		return "Perigee-UCB"
	case Subset:
		return "Perigee-Subset"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Valid reports whether m is a defined method.
func (m Method) Valid() bool { return m >= Vanilla && m <= Subset }

// Observations holds one node's measurements for one round: for each of
// its outgoing neighbors, the time-normalized arrival offset of each block
// (t̃ = t(u,v) − min over all neighbors of t(·,v), per §4.2.1).
// stats.InfDuration marks a block the neighbor never delivered.
//
// Two blocks of a round from one miner observe the same flood, so their
// rows are equal. The engine then lists the round's distinct rows with the
// observations it hands a selector: Offsets is still the full matrix, and
// SubsetSelect reads the list to score each distinct row once, counted as
// often as it occurs. The list describes Offsets as the engine harvested
// them, so the engine attaches it only when no Tamper hook can edit them,
// and a selector must not edit them either. Reset drops the list, and Clone
// copies it.
type Observations struct {
	// Neighbors are the node IDs of the outgoing neighbors being scored
	// (snapshot taken at round start).
	Neighbors []int
	// Offsets[b][i] is the offset of block b from neighbor Neighbors[i].
	Offsets [][]time.Duration

	// backing is the flat buffer the Offsets rows alias, retained so Reset
	// can rebuild the matrix without reallocating.
	backing []time.Duration
	// distinct, when non-nil, lists the rows of Offsets that stand for all
	// of them: row distinct[j] occurs weight[j] times, and the weights sum
	// to len(Offsets). The engine shares one list among all its nodes.
	distinct []int32
	weight   []int32
}

// NewObservations allocates an observation set for the given neighbors and
// block count, initialized to "never delivered".
func NewObservations(neighbors []int, blocks int) Observations {
	var o Observations
	o.Reset(neighbors, blocks)
	return o
}

// Reset reinitializes o in place for a new round — neighbor snapshot
// copied, every offset back to "never delivered" — reusing the backing
// buffers when their capacity suffices.
func (o *Observations) Reset(neighbors []int, blocks int) {
	cells, rows := o.backing, o.Offsets
	if need := blocks * len(neighbors); cap(cells) < need {
		cells = make([]time.Duration, need)
	}
	if cap(rows) < blocks {
		rows = make([][]time.Duration, blocks)
	}
	o.reshape(append(o.Neighbors[:0], neighbors...), blocks, cells[:cap(cells)], rows[:cap(rows)])
	o.censor()
}

// reshape points o at neighbors, which it aliases, and at a blocks ×
// len(neighbors) offset matrix laid out row after row in cells, with its
// row headers in rows; both must be long enough, and o keeps their
// capacity. The offsets hold whatever cells held. Reset passes o's own
// buffers; the engine's round carves all three from its slabs for every
// node, so a steady-state round allocates no observation memory.
func (o *Observations) reshape(neighbors []int, blocks int, cells []time.Duration, rows [][]time.Duration) {
	k := len(neighbors)
	o.Neighbors, o.distinct, o.weight = neighbors, nil, nil
	o.backing = cells[:blocks*k]
	o.Offsets = rows[:blocks]
	for b := range o.Offsets {
		o.Offsets[b] = o.backing[b*k : (b+1)*k : (b+1)*k]
	}
}

// Clone returns a copy of o that shares no memory with it, distinct-row
// list included.
func (o Observations) Clone() Observations {
	c := NewObservations(o.Neighbors, len(o.Offsets))
	for b, row := range o.Offsets {
		copy(c.Offsets[b], row)
	}
	c.distinct, c.weight = slices.Clone(o.distinct), slices.Clone(o.weight)
	return c
}

// censor sets every offset to "never delivered".
func (o *Observations) censor() {
	for i := range o.backing {
		o.backing[i] = stats.InfDuration
	}
}

// columnPool recycles the duration scratch shared by the scoring entry
// points, a block column or a row of per-neighbor scores; scoring runs once
// per node per round from many goroutines, so it must not allocate once
// warm.
var columnPool = sync.Pool{New: func() any { return new([]time.Duration) }}

// VanillaScores assigns each neighbor the pct-percentile of its offset
// multiset. Lower is better. The only steady-state allocation is the
// returned slice; use VanillaScoresInto to elide that too.
func VanillaScores(obs Observations, pct float64) []time.Duration {
	scores := make([]time.Duration, len(obs.Neighbors))
	VanillaScoresInto(scores, obs, pct)
	return scores
}

// VanillaScoresInto writes each neighbor's pct-percentile score into
// scores, which must have length len(obs.Neighbors). It performs no heap
// allocations once the internal pools are warm.
func VanillaScoresInto(scores []time.Duration, obs Observations, pct float64) {
	colp := columnPool.Get().(*[]time.Duration)
	col := *colp
	q := stats.NewQuantile(len(obs.Offsets), pct)
	for i := range obs.Neighbors {
		col = col[:0]
		for b := range obs.Offsets {
			col = append(col, obs.Offsets[b][i])
		}
		scores[i] = q.OfMin(col, nil)
	}
	*colp = col
	columnPool.Put(colp)
}

// rankSorter sorts a neighbor-index slice by (score, neighbor ID). It
// implements sort.Interface so ranking needs no per-call closure
// allocation; instances are pooled because every Vanilla decision ranks
// once per node per round, from many goroutines.
type rankSorter struct {
	idx       []int
	scores    []time.Duration
	neighbors []int
}

func (s *rankSorter) Len() int { return len(s.idx) }
func (s *rankSorter) Less(a, b int) bool {
	ia, ib := s.idx[a], s.idx[b]
	if s.scores[ia] != s.scores[ib] {
		return s.scores[ia] < s.scores[ib]
	}
	return s.neighbors[ia] < s.neighbors[ib]
}
func (s *rankSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

var rankSorterPool = sync.Pool{New: func() any { return new(rankSorter) }}

// subsetScratch bundles the working buffers of one SubsetSelect call so the
// greedy §4.3 selection — which runs once per node per round, from many
// goroutines — allocates nothing once warm but the slice it returns, which
// the selector's decision buffer provides. Each buffer is grown at most once
// a call, to that call's bound, so a call no larger than one before it
// allocates nothing.
type subsetScratch struct {
	// durations holds, back to back, the scored rows transposed (one
	// contiguous column per neighbor), each neighbor's individual score and
	// each row's best offset among the chosen.
	durations []time.Duration
	used      []bool
	order     []stats.OrderedLimit // one step's rows with best above θ, largest first
}

var subsetPool = sync.Pool{New: func() any { return new(subsetScratch) }}

// grow resizes *buf to n elements, reusing its array when it is large
// enough; the contents are unspecified. A new array's capacity is
// growCap's, and the old array is released before it is allocated, so a
// collection the allocation starts frees it unless something else holds it.
func grow[T any](buf *[]T, n int) []T {
	if c := cap(*buf); c < n {
		*buf = nil
		*buf = make([]T, n, growCap(c, n))
	}
	*buf = (*buf)[:n]
	return *buf
}

// growCap is the capacity of a new array of n elements that replaces one
// of capacity had: exactly n for a first array, a quarter more for one
// that replaces an outgrown array. A timed round's window and a table's
// edge count drift, and buffers sized exactly would be reallocated at
// every new maximum.
func growCap(had, n int) int {
	if had == 0 {
		return n
	}
	return n + n/4
}

// rankInto appends to dst the neighbor indices ordered best-first
// (ascending score), breaking ties by neighbor ID for determinism. It
// allocates nothing once warm unless dst has to grow.
func rankInto(dst []int, obs Observations, scores []time.Duration) []int {
	dst = identity(dst, len(scores))
	srt := rankSorterPool.Get().(*rankSorter)
	srt.idx, srt.scores, srt.neighbors = dst[len(dst)-len(scores):], scores, obs.Neighbors
	sort.Sort(srt)
	srt.idx, srt.scores, srt.neighbors = nil, nil, nil // don't retain caller slices
	rankSorterPool.Put(srt)
	return dst
}

// SubsetSelect greedily picks up to retain neighbor indices whose joint
// delivery profile is fastest (§4.3): the first pick minimizes the raw
// pct-percentile; each subsequent pick minimizes the percentile of
// per-block minima against the already-chosen set, so a neighbor is valued
// only for the blocks it delivers faster than the current selection.
//
// The paper does not specify tie-breaking. Ties on the joint score are
// common and consequential: once a chosen neighbor delivered first on
// every block, all remaining candidates transform to identical zeros.
// Ties therefore break toward the better individual (Vanilla) score —
// a redundant-but-fast neighbor beats one that never delivers — and
// finally toward the lower neighbor ID for determinism.
//
// A joint score is at most the percentile of best, the chosen set's
// per-block minima, and only blocks where best is large can be among the few
// largest minima the percentile reads. Each step after the first lists the
// blocks with best above θ, largest first, and scores every candidate by
// the plan's OfMinOrdered over that list: typically a dozen entries read
// instead of the whole column. θ is half the previous step's winning score —
// no step's winner scores above the one before, so this step's scores mostly
// land between the two. It is a guess about where they will fall, nothing
// more: a score the ordered pass cannot certify from the list it was given
// (about one in twenty) is taken by the full scan, OfMin, so the choices are
// those of scanning every column at every step whatever θ is. When the
// percentile reads deeper than the ordered pass serves (Quantile.TopSlots),
// or only the two largest minima (Quantile.TwoSlot, which OfMin keeps
// without a branch), no list is built and every score is a scan.
//
// When obs lists its distinct rows (see Observations) and the list drops at
// least a quarter of the rows, only the distinct rows are transposed and
// scored, each counted as often as it occurs, through the weighted forms of
// the same kernels; a two-slot percentile ignores the list. A percentile of
// a multiset depends only on its values and their counts, so every score,
// and every choice, is the full matrix's to the bit.
func SubsetSelect(obs Observations, retain int, pct float64) []int {
	return subsetSelectInto(nil, obs, retain, pct)
}

// subsetSelectInto is SubsetSelect appending its choice to dst.
func subsetSelectInto(dst []int, obs Observations, retain int, pct float64) []int {
	k := len(obs.Neighbors)
	if retain >= k {
		return identity(dst, k)
	}
	if retain <= 0 {
		return dst
	}
	blocks := len(obs.Offsets)
	q := stats.NewQuantile(blocks, pct)
	twoSlot := q.TwoSlot()
	sc := subsetPool.Get().(*subsetScratch)
	defer subsetPool.Put(sc)
	// rows is how many rows are scored; w, when non-nil, how many blocks
	// each stands for. The weighted kernels cost more per row than the unit
	// ones, and a round that repeats few miners (one block in twenty, when
	// they are drawn uniformly) saves less than that: below a quarter of
	// the rows dropped, the matrix is scored row by row, and so is every
	// matrix the two-slot scan reads.
	rows := blocks
	var w []int32
	if obs.distinct != nil && !twoSlot && 4*len(obs.distinct) <= 3*blocks {
		rows, w = len(obs.distinct), obs.weight
	}
	durations := grow(&sc.durations, k*rows+k+rows)
	// Every greedy step reads whole columns, so lay them out contiguously
	// once instead of striding through the block-major rows each time.
	cols := durations[:k*rows]
	if w == nil {
		for b, row := range obs.Offsets {
			for i, t := range row[:k] {
				cols[i*rows+b] = t
			}
		}
	} else {
		for j, b := range obs.distinct {
			for i, t := range obs.Offsets[b][:k] {
				cols[i*rows+j] = t
			}
		}
	}
	individual := durations[k*rows : k*rows+k]
	for i := range individual {
		individual[i] = percentileOfMin(&q, cols[i*rows:(i+1)*rows], nil, w)
	}
	// best[j] is the fastest offset among chosen neighbors for row j.
	best := durations[k*rows+k:]
	for j := range best {
		best[j] = stats.InfDuration
	}
	// chosen grows inside dst's capacity, so dst ends with it.
	dst = slices.Grow(dst, retain)
	start := len(dst)
	chosen := dst[start:start]
	used := grow(&sc.used, k)
	clear(used) // read before it is written
	ordered := q.TopSlots() && !twoSlot
	var limits []stats.OrderedLimit // room for every row: limitsAbove never grows it
	if ordered {
		limits = grow(&sc.order, rows)[:0]
	}
	var prevScore time.Duration
	for len(chosen) < retain {
		var order []stats.OrderedLimit
		theta := prevScore / 2
		if ordered && len(chosen) > 0 {
			order = limitsAbove(limits, best, w, theta)
		}
		bestIdx := -1
		bestScore := stats.InfDuration
		for i := 0; i < k; i++ {
			if used[i] {
				continue
			}
			// Against an empty selection the joint score is the
			// individual one.
			score := individual[i]
			if len(chosen) > 0 {
				col := cols[i*rows : (i+1)*rows]
				certified := false
				if ordered {
					score, certified = orderedPercentileOfMin(&q, col, order, theta, w)
				}
				if !certified {
					score = percentileOfMin(&q, col, best, w)
				}
			}
			if bestIdx == -1 || score < bestScore || (score == bestScore && subsetTieBetter(obs, individual, i, bestIdx)) {
				bestScore = score
				bestIdx = i
			}
		}
		if bestIdx == -1 {
			break
		}
		used[bestIdx] = true
		chosen = append(chosen, bestIdx)
		prevScore = bestScore
		for j, t := range cols[bestIdx*rows : (bestIdx+1)*rows] {
			best[j] = min(best[j], t)
		}
	}
	sort.Ints(chosen)
	return dst[:start+len(chosen)]
}

// percentileOfMin is q.OfMin of a column of rows, or, when w is non-nil,
// its weighted form, row j standing for w[j] of q's blocks.
func percentileOfMin(q *stats.Quantile, col, limit []time.Duration, w []int32) time.Duration {
	if w == nil {
		return q.OfMin(col, limit)
	}
	return q.OfMinWeighted(col, limit, w)
}

// orderedPercentileOfMin is percentileOfMin's ordered pass.
func orderedPercentileOfMin(q *stats.Quantile, col []time.Duration, order []stats.OrderedLimit, theta time.Duration, w []int32) (time.Duration, bool) {
	if w == nil {
		return q.OfMinOrdered(col, order, theta)
	}
	return q.OfMinOrderedWeighted(col, order, theta)
}

// limitsAbove appends to dst the rows whose best exceeds theta, largest
// first, each weighing w[row] (one when w is nil). The list is a few dozen
// entries, so it is ordered by insertion as it is collected.
func limitsAbove(dst []stats.OrderedLimit, best []time.Duration, w []int32, theta time.Duration) []stats.OrderedLimit {
	for b, t := range best {
		if t <= theta {
			continue
		}
		weight := int32(1)
		if w != nil {
			weight = w[b]
		}
		dst = append(dst, stats.OrderedLimit{})
		j := len(dst) - 1
		for ; j > 0 && dst[j-1].Limit < t; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = stats.OrderedLimit{Limit: t, Index: int32(b), Weight: weight}
	}
	return dst
}

// subsetTieBetter reports whether candidate i beats the incumbent on a
// joint-score tie: better individual score first, then lower neighbor ID.
func subsetTieBetter(obs Observations, individual []time.Duration, i, incumbent int) bool {
	if individual[i] != individual[incumbent] {
		return individual[i] < individual[incumbent]
	}
	return obs.Neighbors[i] < obs.Neighbors[incumbent]
}

// UCBBounds computes the lower and upper confidence bounds of eq. (3)–(4):
// the pct-percentile of the accumulated finite offsets ± c·sqrt(log N / 2N).
// A neighbor with no finite samples gets (InfDuration, InfDuration): there
// is no evidence it ever delivers blocks.
func UCBBounds(samples []time.Duration, pct float64, c time.Duration) (lcb, ucb time.Duration) {
	n := len(samples)
	if n == 0 {
		return stats.InfDuration, stats.InfDuration
	}
	estimate := stats.DurationPercentile(samples, pct)
	if estimate == stats.InfDuration {
		return stats.InfDuration, stats.InfDuration
	}
	bonus := time.Duration(float64(c) * math.Sqrt(math.Log(float64(n))/(2*float64(n))))
	lcb = estimate - bonus
	if lcb < 0 {
		lcb = 0
	}
	return lcb, estimate + bonus
}

// UCBEvict applies §4.2.2's rule to a set of per-neighbor confidence
// intervals: if max lcb > min ucb, the neighbor attaining the max lcb is
// evicted. It returns that neighbor's index, or -1 when no interval
// separation exists. Ties break toward the lower index.
func UCBEvict(lcbs, ucbs []time.Duration) int {
	if len(lcbs) == 0 || len(lcbs) != len(ucbs) {
		return -1
	}
	maxL, argMax := lcbs[0], 0
	minU := ucbs[0]
	for i := 1; i < len(lcbs); i++ {
		if lcbs[i] > maxL {
			maxL, argMax = lcbs[i], i
		}
		if ucbs[i] < minU {
			minU = ucbs[i]
		}
	}
	if maxL > minU {
		return argMax
	}
	return -1
}
