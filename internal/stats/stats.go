// Package stats provides the statistical primitives used throughout the
// Perigee simulator: percentiles (including right-censored observations),
// streaming summaries, histograms, CDFs, and cross-trial aggregation with
// error bars.
//
// All float-based functions treat math.Inf(1) as a right-censored
// observation ("the block never arrived"): censored points sort after every
// finite point, so a percentile that lands among them is itself +Inf.
//
// Subset scoring takes a duration percentile once per candidate per greedy
// step, so that percentile is planned. NewQuantile(n, p) checks p once and
// works out the rank p·(n−1) of the p-quantile of n values, the two
// adjacent order statistics lo and hi it reads, and m = n − lo, how many of
// the largest values reach rank lo. A caller scoring many columns of one
// length builds one plan and calls its kernels: OfMin (the quantile of a
// column clipped element-wise to a limit column), OfMinWeighted (of a
// multiset given by distinct values and counts), and OfMinOrdered and
// OfMinOrderedWeighted (the same read from a descending list of the limits
// that matter, certified only when the list settles the quantile). OfMin
// runs in one of three regimes, chosen by m alone:
//
//   - two slots (m ≤ 2; at p = 0.9, every column of 1 to 11 values): a scan
//     keeps the two largest values seen with b2 = max(b2, min(b1, x)) and
//     b1 = max(b1, x), so no branch depends on the data;
//   - top slots (m ≤ 16): a scan keeps the m largest in an ascending buffer
//     on the stack, and a value pays one comparison unless it displaces the
//     buffer's least (the weighted and ordered kernels use the same buffer);
//   - select (deeper): the values are copied into a pooled buffer and the
//     two order statistics selected in place.
//
// Every regime reads the same two order statistics and interpolates between
// them by one function, so the regime changes the cost and never a result.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// InfDuration is the sentinel used for censored duration observations. It
// sorts after every representable duration.
const InfDuration = time.Duration(math.MaxInt64)

// Percentile returns the p-quantile (p in [0, 1]) of xs using linear
// interpolation between closest ranks. It returns NaN for an empty input
// and panics if p is outside [0, 1], which always indicates a programming
// error at the call site.
func Percentile(xs []float64, p float64) float64 {
	q := NewQuantile(len(xs), p)
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	a, b := sorted[q.lo], sorted[q.hi]
	if q.lo == q.hi {
		return a
	}
	frac := q.frac
	if math.IsInf(b, 1) {
		if frac == 0 {
			return a
		}
		return math.Inf(1)
	}
	// Convex combination rather than a + (b-a)*frac: the difference form
	// can overflow when a and b have opposite signs near ±MaxFloat64.
	return a*(1-frac) + b*frac
}

// Quantile is the plan of the p-quantile of n values, which NewQuantile
// makes once for all the columns of that length a caller scores: the two
// adjacent order statistics lo and hi around the rank p·(n−1), the weight
// the interpolation gives rank hi, and m = n − lo, how many of the largest
// values it takes to reach rank lo. The m decides which regime the kernels
// run in (see the package comment); the result never depends on it. The
// zero Quantile plans the quantile of no values.
//
// A plan is not modified after NewQuantile, so goroutines may share one.
// Its methods take a pointer: a kernel called once per candidate then
// receives one word for the plan, not a copy of it.
type Quantile struct {
	n, m, lo, hi int
	frac         float64 // rank − lo
}

// NewQuantile plans the p-quantile of n values. It panics unless p is in
// [0, 1]; anything else is a programming error at the call site.
func NewQuantile(n int, p float64) Quantile {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: percentile %v outside [0, 1]", p))
	}
	if n == 0 {
		return Quantile{}
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	return Quantile{n: n, m: n - lo, lo: lo, hi: int(math.Ceil(rank)), frac: rank - float64(lo)}
}

// TwoSlot reports whether the quantile reads only the two largest values,
// which OfMin then keeps without a data-dependent branch: at p = 0.9, the
// quantile of 1 to 11 values.
func (q *Quantile) TwoSlot() bool { return q.n > 0 && q.m <= twoSlots }

// TopSlots reports whether the quantile is one the top-slots buffer
// answers, which is when OfMinOrdered can certify anything; for a deeper
// quantile a caller need not build its list.
func (q *Quantile) TopSlots() bool { return q.n > 0 && q.m <= topSlots }

// interpolate is the quantile between a, the order statistic of rank lo,
// and b, the one of rank hi: censored if b is.
func (q *Quantile) interpolate(a, b time.Duration) time.Duration {
	if q.lo != q.hi && b != InfDuration {
		return a + time.Duration(float64(b-a)*q.frac)
	}
	return b
}

// checkLen panics unless a column of got values is one q was planned for.
func (q *Quantile) checkLen(got int) {
	if got != q.n {
		panicLen(got, q.n)
	}
}

// panicLen is checkLen's failure, kept out of line so checkLen inlines.
func panicLen(got, want int) {
	panic(fmt.Sprintf("stats: %d values for a quantile planned over %d", got, want))
}

// durationSelectPool recycles the buffer the percentile kernel copies its
// input into when the quantile sits too deep for the top-slots pass. The
// primitive runs in every scoring inner loop (once per neighbor-candidate
// per node per round, from many goroutines), so the copy-and-select must
// not allocate once warm.
var durationSelectPool = sync.Pool{New: func() any { return new([]time.Duration) }}

// DurationPercentile returns the p-quantile of ds with linear interpolation.
// InfDuration observations are treated as right-censored: if the quantile
// needs to interpolate into a censored value, the result is InfDuration.
// It returns InfDuration for empty input (there is no evidence the event
// ever happens). The input is not modified; steady-state calls perform no
// heap allocations. A caller that scores many columns of one length plans
// the quantile once with NewQuantile and calls Quantile.OfMin.
func DurationPercentile(ds []time.Duration, p float64) time.Duration {
	q := NewQuantile(len(ds), p)
	return q.OfMin(ds, nil)
}

// twoSlots is the slot count up to which OfMin runs the two-slot scan.
const twoSlots = 2

// topSlots bounds the one-pass branch of OfMin: a quantile whose lower
// order statistic is among the topSlots largest values (p = 0.9 of 100
// samples reads the 10th and 11th largest) is answered from an ascending
// buffer of that many values kept on the stack. The pass has two loops: the
// first fills the buffer from as many leading values as it has slots, by
// insertion; the second scans the rest, and a value pays one comparison with
// the buffer's least unless it displaces it. The scan is written out twice,
// with and without a limit column, so that neither form tests for the
// other's case per element. The same quantiles are the ones OfMinOrdered
// answers (TopSlots tells a caller which): it fills the same buffer by the
// same two loops, walking the limit column from its largest entry down
// instead of by position, and stops where the limits can no longer reach the
// buffer.
const topSlots = 16

// insertAscending puts x in its place in the ascending top[:i], which grows
// by one; a value no smaller than all of them costs one comparison.
func insertAscending(top *[topSlots]time.Duration, i int, x time.Duration) {
	j := i
	for ; j > 0 && top[j-1] > x; j-- {
		top[j] = top[j-1]
	}
	top[j] = x
}

// replaceLeast drops top[0], the least of the ascending top[:m], and puts x,
// which is greater, in its place in the order.
func replaceLeast(top *[topSlots]time.Duration, m int, x time.Duration) {
	j := 1
	for ; j < m && top[j] < x; j++ {
		top[j-1] = top[j]
	}
	top[j-1] = x
}

// twoLargest returns the largest and the second-largest element-wise minimum
// min(ds[i], limit[i]), limit nil meaning no clipping; a missing value is
// math.MinInt64. Each value updates the pair through min and max alone,
// which compile to conditional moves, so no branch depends on the data.
func twoLargest(ds, limit []time.Duration) (b1, b2 time.Duration) {
	b1, b2 = math.MinInt64, math.MinInt64
	if limit == nil {
		for _, x := range ds {
			b2 = max(b2, min(b1, x))
			b1 = max(b1, x)
		}
		return b1, b2
	}
	limit = limit[:len(ds)]
	for i, x := range ds {
		x = min(x, limit[i])
		b2 = max(b2, min(b1, x))
		b1 = max(b1, x)
	}
	return b1, b2
}

// OfMin is the planned quantile of the element-wise minimum
// min(ds[i], limit[i]), computed without materializing it — Subset scoring
// values a candidate's offsets clipped to the already-chosen set's — with
// DurationPercentile's censoring and interpolation. ds must hold the n
// values q was planned for. A nil limit means no clipping; otherwise limit
// must be as long as ds. Neither input is modified; steady-state calls
// perform no heap allocations.
func (q *Quantile) OfMin(ds, limit []time.Duration) time.Duration {
	q.checkLen(len(ds))
	if q.n == 0 {
		return InfDuration
	}
	if limit != nil {
		limit = limit[:q.n]
	}
	// The quantile reads the two adjacent order statistics lo and hi.
	var a, result time.Duration
	switch m := q.m; {
	case m <= twoSlots:
		// The order statistic of rank lo is the largest value (m = 1) or the
		// second largest, and rank hi, when it differs, is the largest.
		b1, b2 := twoLargest(ds, limit)
		a, result = b2, b1
		if m == twoSlots && q.hi == q.lo {
			result = b2
		}
	case m <= topSlots:
		// top[:m] is ascending and holds the m largest values seen, so at
		// the end top[0] has rank lo and top[1] rank lo+1.
		var top [topSlots]time.Duration
		for i, x := range ds[:m] {
			if limit != nil {
				x = min(x, limit[i])
			}
			insertAscending(&top, i, x)
		}
		if limit == nil {
			for _, x := range ds[m:] {
				if x > top[0] {
					replaceLeast(&top, m, x)
				}
			}
		} else {
			rest := limit[m:]
			for i, x := range ds[m:] {
				if x = min(x, rest[i]); x > top[0] {
					replaceLeast(&top, m, x)
				}
			}
		}
		a, result = top[0], top[q.hi-q.lo]
	default:
		bufp := durationSelectPool.Get().(*[]time.Duration)
		buf := append((*bufp)[:0], ds...)
		for i, l := range limit {
			if l < buf[i] {
				buf[i] = l
			}
		}
		a, result = selectRanks(buf, q.lo, q.hi)
		*bufp = buf[:0]
		durationSelectPool.Put(bufp)
	}
	return q.interpolate(a, result)
}

// selectRanks returns the order statistics of ranks lo and hi of buf, which
// it reorders: select instead of sorting, partitioning around rank hi, after
// which rank hi-1 is the maximum of everything left of it. The rank-lo value
// is left zero where interpolate does not read it.
func selectRanks(buf []time.Duration, lo, hi int) (a, b time.Duration) {
	selectKth(buf, hi)
	b = buf[hi]
	if lo != hi && b != InfDuration {
		a = slices.Max(buf[:hi])
	}
	return a, b
}

// insertCopies is insertAscending of c copies of x: the ascending top[:i]
// grows by c.
func insertCopies(top *[topSlots]time.Duration, i int, x time.Duration, c int) {
	j := i
	for ; j > 0 && top[j-1] > x; j-- {
		top[j-1+c] = top[j-1]
	}
	for q := j; q < j+c; q++ {
		top[q] = x
	}
}

// replaceCopies keeps in the ascending top[:m] the m largest of its values
// and c copies of x: each value below x, least first, gives way to a copy,
// until c have. It walks the values below x once, as replaceLeast does,
// moving each down past the c least.
func replaceCopies(top *[topSlots]time.Duration, m int, x time.Duration, c int) {
	s := 0
	for ; s < m && top[s] < x; s++ {
		if s >= c {
			top[s-c] = top[s]
		}
	}
	for q := max(s-c, 0); q < s; q++ {
		top[q] = x
	}
}

// OfMinWeighted is OfMin of a multiset given by its distinct values:
// min(ds[i], limit[i]) counts w[i] times, and the counts sum to the n values
// q was planned for. The result is OfMin of the expanded sample to the bit,
// since a quantile depends only on values and their counts. Subset scoring
// uses it for a round whose blocks repeat a miner, and so repeat an
// observation row. A nil limit means no clipping; otherwise limit, like w,
// must be as long as ds. The top-slots pass takes a value once for each of
// its copies that can still hold a slot; a quantile too deep for it expands
// the values into the select buffer.
func (q *Quantile) OfMinWeighted(ds, limit []time.Duration, w []int32) time.Duration {
	if q.n == 0 {
		return InfDuration
	}
	if limit != nil {
		limit = limit[:len(ds)]
	}
	w = w[:len(ds)]
	var a, result time.Duration
	if m := q.m; m <= topSlots {
		// As in the unit pass, a fill loop and a scan loop. The copies of a
		// value that fit fill the buffer; the rest of the last value's
		// compete for its slots, as every later value's do.
		var top [topSlots]time.Duration
		i, filled := 0, 0
		for ; filled < m && i < len(ds); i++ {
			x := ds[i]
			if limit != nil {
				x = min(x, limit[i])
			}
			c := int(w[i])
			f := min(c, m-filled)
			if f == 1 {
				insertAscending(&top, filled, x)
			} else {
				insertCopies(&top, filled, x, f)
			}
			filled += f
			if c > f && x > top[0] {
				replaceCopies(&top, m, x, c-f)
			}
		}
		for ; i < len(ds); i++ {
			x := ds[i]
			if limit != nil {
				x = min(x, limit[i])
			}
			if x > top[0] {
				if c := w[i]; c == 1 {
					replaceLeast(&top, m, x)
				} else {
					replaceCopies(&top, m, x, int(c))
				}
			}
		}
		a, result = top[0], top[q.hi-q.lo]
	} else {
		bufp := durationSelectPool.Get().(*[]time.Duration)
		buf := (*bufp)[:0]
		for i, x := range ds {
			if limit != nil {
				x = min(x, limit[i])
			}
			for c := w[i]; c > 0; c-- {
				buf = append(buf, x)
			}
		}
		a, result = selectRanks(buf, q.lo, q.hi)
		*bufp = buf[:0]
		durationSelectPool.Put(bufp)
	}
	return q.interpolate(a, result)
}

// OrderedLimit is one entry of the list OfMinOrdered walks: a limit, the
// position it clips and, for OfMinOrderedWeighted, how many values that
// position stands for. It is 16 bytes.
type OrderedLimit struct {
	Limit  time.Duration
	Index  int32
	Weight int32
}

// OfMinOrdered is OfMin(ds, limit) read from the part of the limit column
// that matters: order lists the positions whose limit exceeds theta, each
// once, by descending limit. The value is meaningful only when certified is
// true, and then it is the full scan's to the bit.
//
// min(ds[i], limit[i]) never exceeds limit[i], so once the m-slot buffer's
// least is no smaller than the next listed limit, nothing later in the list
// and nothing off it can displace a slot: the buffer holds the m largest
// minima, which are all the quantile reads. The walk stops there. If the
// list ends first, what is off it is at most theta, and the buffer stands if
// its least is at least theta. Otherwise — and when the list is shorter than
// the buffer or the quantile too deep for the top-slots pass — the call
// certifies nothing and the caller scans the column. theta only decides how
// often that happens; no value of it can make a certified result wrong.
func (q *Quantile) OfMinOrdered(ds []time.Duration, order []OrderedLimit, theta time.Duration) (value time.Duration, certified bool) {
	q.checkLen(len(ds))
	m := q.m
	if q.n == 0 || m > topSlots || len(order) < m {
		return 0, false
	}
	// The first m entries carry the largest limits; taken back to front
	// their minima mostly ascend, so the fill appends.
	var top [topSlots]time.Duration
	for i := 0; i < m; i++ {
		e := order[m-1-i]
		insertAscending(&top, i, min(ds[e.Index], e.Limit))
	}
	for _, e := range order[m:] {
		if e.Limit <= top[0] {
			certified = true
			break
		}
		if x := min(ds[e.Index], e.Limit); x > top[0] {
			replaceLeast(&top, m, x)
		}
	}
	if !certified && top[0] < theta {
		return 0, false
	}
	return q.interpolate(top[0], top[q.hi-q.lo]), true
}

// OfMinOrderedWeighted is OfMinOrdered for the multiset OfMinWeighted
// takes: position i stands for w[i] of the n values q was planned for, and
// each list entry carries its position's weight, so the walk never reads w.
// The leading entries that weigh at least the buffer's m slots fill it, the
// last of them with the copies that fit and the rest of its copies competing
// for slots as later entries do; a list that weighs less than m certifies
// nothing. A certified value is OfMinWeighted's to the bit, by the argument
// OfMinOrdered makes.
func (q *Quantile) OfMinOrderedWeighted(ds []time.Duration, order []OrderedLimit, theta time.Duration) (value time.Duration, certified bool) {
	m := q.m
	if q.n == 0 || m > topSlots {
		return 0, false
	}
	j, weight := 0, 0
	for ; j < len(order) && weight < m; j++ {
		weight += int(order[j].Weight)
	}
	if weight < m {
		return 0, false
	}
	// As in the unit pass, the fill takes its entries back to front; extra
	// copies of order[j-1]'s minimum do not fit.
	extra := weight - m
	var top [topSlots]time.Duration
	filled := 0
	for i := j - 1; i >= 0; i-- {
		e := order[i]
		x := min(ds[e.Index], e.Limit)
		c := int(e.Weight)
		if i == j-1 {
			c -= extra
		}
		if c == 1 {
			insertAscending(&top, filled, x)
		} else {
			insertCopies(&top, filled, x, c)
		}
		filled += c
	}
	if e := order[j-1]; extra > 0 {
		if x := min(ds[e.Index], e.Limit); x > top[0] {
			replaceCopies(&top, m, x, extra)
		}
	}
	for _, e := range order[j:] {
		if e.Limit <= top[0] {
			certified = true
			break
		}
		if x := min(ds[e.Index], e.Limit); x > top[0] {
			if e.Weight == 1 {
				replaceLeast(&top, m, x)
			} else {
				replaceCopies(&top, m, x, int(e.Weight))
			}
		}
	}
	if !certified && top[0] < theta {
		return 0, false
	}
	return q.interpolate(top[0], top[q.hi-q.lo]), true
}

// selectKth partially orders a so that a[k] holds the value a full sort
// would put there, nothing left of k is greater and nothing right of it is
// smaller (Hoare's Find with a median-of-three pivot; equal keys, such as a
// run of censored observations, split evenly between the sides).
func selectKth(a []time.Duration, k int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		pivot := a[lo+(hi-lo)/2]
		if x, y := min(a[lo], a[hi]), max(a[lo], a[hi]); pivot < x {
			pivot = x
		} else if pivot > y {
			pivot = y
		}
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Summary accumulates a streaming mean/variance/min/max using Welford's
// algorithm. The zero value is ready to use.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the running mean, or NaN if empty.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Variance returns the sample variance (n-1 denominator), or NaN when fewer
// than two observations exist.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or NaN if empty.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation, or NaN if empty.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanStd returns the mean and sample standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	var s Summary
	for _, x := range xs {
		s.Add(x)
	}
	return s.Mean(), s.Std()
}

// CDF returns the empirical CDF support points of xs: a sorted copy, such
// that point i has cumulative probability (i+1)/len.
func CDF(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// AggregateSeries combines per-trial series (each already sorted or
// otherwise index-aligned) into a per-index mean and standard deviation.
// All trials must have equal length.
func AggregateSeries(trials [][]float64) (mean, std []float64, err error) {
	if len(trials) == 0 {
		return nil, nil, fmt.Errorf("stats: no trials to aggregate")
	}
	n := len(trials[0])
	for i, tr := range trials {
		if len(tr) != n {
			return nil, nil, fmt.Errorf("stats: trial %d has length %d, want %d", i, len(tr), n)
		}
	}
	mean = make([]float64, n)
	std = make([]float64, n)
	for i := 0; i < n; i++ {
		var s Summary
		for _, tr := range trials {
			s.Add(tr[i])
		}
		mean[i] = s.Mean()
		if len(trials) > 1 {
			std[i] = s.Std()
		}
	}
	return mean, std, nil
}

// Histogram is a fixed-range, equal-width histogram. Observations outside
// [Lo, Hi) are clamped into the first/last bin so that total mass is
// preserved, which matches how the paper's Figure 5 bins edge latencies.
type Histogram struct {
	Lo, Hi float64
	counts []int
	total  int
}

// NewHistogram builds a histogram over [lo, hi) with the given number of
// equal-width bins.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bin, got %d", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: histogram range [%v, %v) is empty", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, counts: make([]int, bins)}, nil
}

// Add folds one observation into the histogram.
func (h *Histogram) Add(x float64) {
	idx := int(float64(len(h.counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.total++
}

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []int {
	return append([]int(nil), h.counts...)
}

// Total returns the number of observations added.
func (h *Histogram) Total() int { return h.total }

// Fractions returns per-bin mass as fractions of the total; an empty
// histogram yields all zeros.
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	width := (h.Hi - h.Lo) / float64(len(h.counts))
	return h.Lo + width*(float64(i)+0.5)
}

// MarshalJSON emits the histogram as {"lo", "hi", "counts", "total"} so
// results embedding histograms serialize without losing the bin counts
// (which are unexported).
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Lo     float64 `json:"lo"`
		Hi     float64 `json:"hi"`
		Counts []int   `json:"counts"`
		Total  int     `json:"total"`
	}{Lo: h.Lo, Hi: h.Hi, Counts: h.counts, Total: h.total})
}

// Render draws an ASCII bar chart of the histogram, width characters wide
// at the tallest bin.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	maxCount := 0
	for _, c := range h.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range h.counts {
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		fmt.Fprintf(&b, "%10.1f | %-*s %d\n", h.BinCenter(i), width, strings.Repeat("#", bar), c)
	}
	return b.String()
}
