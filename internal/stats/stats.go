// Package stats provides the statistical primitives used throughout the
// Perigee simulator: percentiles (including right-censored observations),
// streaming summaries, histograms, CDFs, and cross-trial aggregation with
// error bars.
//
// All float-based functions treat math.Inf(1) as a right-censored
// observation ("the block never arrived"): censored points sort after every
// finite point, so a percentile that lands among them is itself +Inf.
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
	checkQuantile(p)
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sortedPercentile(sorted, p)
}

func sortedPercentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	a, b := sorted[lo], sorted[hi]
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
// heap allocations.
func DurationPercentile(ds []time.Duration, p float64) time.Duration {
	return DurationPercentileOfMin(ds, nil, p)
}

// topSlots bounds the one-pass branch of DurationPercentileOfMin: a
// quantile whose lower order statistic is among the topSlots largest values
// (p = 0.9 of 100 samples reads the 10th and 11th largest) is answered from
// an ascending buffer of that many values kept on the stack. The pass has
// two loops: the first fills the buffer from as many leading values as it
// has slots, by insertion; the second scans the rest, and a value pays one
// comparison with the buffer's least unless it displaces it. The scan is
// written out twice, with and without a limit column, so that neither form
// tests for the other's case per element. The same quantiles are the ones
// DurationPercentileOfMinOrdered answers (TopSlotsServe tells a caller
// which): it fills the same buffer by the same two loops, walking the limit
// column from its largest entry down instead of by position, and stops where
// the limits can no longer reach the buffer.
const topSlots = 16

// checkQuantile panics unless p is in [0, 1]; anything else is a
// programming error at the call site.
func checkQuantile(p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: percentile %v outside [0, 1]", p))
	}
}

// quantileRanks returns the fractional rank of the p-quantile of n ≥ 1
// values and the two adjacent order statistics it reads.
func quantileRanks(n int, p float64) (rank float64, lo, hi int) {
	rank = p * float64(n-1)
	return rank, int(math.Floor(rank)), int(math.Ceil(rank))
}

// interpolate is the quantile between a, the order statistic of rank lo,
// and b, the one of rank hi: censored if b is.
func interpolate(a, b time.Duration, rank float64, lo, hi int) time.Duration {
	if lo != hi && b != InfDuration {
		return a + time.Duration(float64(b-a)*(rank-float64(lo)))
	}
	return b
}

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

// DurationPercentileOfMin is DurationPercentile of the element-wise minimum
// min(ds[i], limit[i]), computed without materializing it — Subset scoring
// values a candidate's offsets clipped to the already-chosen set's. A nil
// limit means no clipping; otherwise limit must be as long as ds. Neither
// input is modified; steady-state calls perform no heap allocations.
func DurationPercentileOfMin(ds, limit []time.Duration, p float64) time.Duration {
	checkQuantile(p)
	n := len(ds)
	if n == 0 {
		return InfDuration
	}
	if limit != nil {
		limit = limit[:n]
	}
	// The quantile reads the two adjacent order statistics lo and hi.
	rank, lo, hi := quantileRanks(n, p)
	var a, result time.Duration
	if m := n - lo; m <= topSlots {
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
		a, result = top[0], top[hi-lo]
	} else {
		bufp := durationSelectPool.Get().(*[]time.Duration)
		buf := append((*bufp)[:0], ds...)
		for i, l := range limit {
			if l < buf[i] {
				buf[i] = l
			}
		}
		a, result = selectRanks(buf, lo, hi)
		*bufp = buf[:0]
		durationSelectPool.Put(bufp)
	}
	return interpolate(a, result, rank, lo, hi)
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

// DurationPercentileOfMinWeighted is DurationPercentileOfMin of a multiset
// given by its distinct values: min(ds[i], limit[i]) counts w[i] times, and
// n is the sum of w. The result is DurationPercentileOfMin of the expanded
// sample to the bit, since a quantile depends only on values and their
// counts. Subset scoring uses it for a round whose blocks repeat a miner,
// and so repeat an observation row. A nil limit means no clipping;
// otherwise limit, like w, must be as long as ds. The top-slots pass takes
// a value once for each of its copies that can still hold a slot; a
// quantile too deep for it expands the values into the select buffer.
func DurationPercentileOfMinWeighted(ds, limit []time.Duration, w []int32, n int, p float64) time.Duration {
	checkQuantile(p)
	if n == 0 {
		return InfDuration
	}
	if limit != nil {
		limit = limit[:len(ds)]
	}
	w = w[:len(ds)]
	rank, lo, hi := quantileRanks(n, p)
	var a, result time.Duration
	if m := n - lo; m <= topSlots {
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
		a, result = top[0], top[hi-lo]
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
		a, result = selectRanks(buf, lo, hi)
		*bufp = buf[:0]
		durationSelectPool.Put(bufp)
	}
	return interpolate(a, result, rank, lo, hi)
}

// OrderedLimit is one entry of the list DurationPercentileOfMinOrdered
// walks: a limit, the position it clips and, for
// DurationPercentileOfMinOrderedWeighted, how many values that position
// stands for. It is 16 bytes.
type OrderedLimit struct {
	Limit  time.Duration
	Index  int32
	Weight int32
}

// TopSlotsServe reports whether the p-quantile of n values is one the
// top-slots pass answers, which is when DurationPercentileOfMinOrdered can
// certify anything; for a deeper quantile a caller need not build its list.
func TopSlotsServe(n int, p float64) bool {
	checkQuantile(p)
	if n == 0 {
		return false
	}
	_, lo, _ := quantileRanks(n, p)
	return n-lo <= topSlots
}

// DurationPercentileOfMinOrdered is DurationPercentileOfMin(ds, limit, p)
// read from the part of the limit column that matters: order lists the
// positions whose limit exceeds theta, each once, by descending limit. The
// value is meaningful only when certified is true, and then it is the full
// scan's to the bit.
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
func DurationPercentileOfMinOrdered(ds []time.Duration, order []OrderedLimit, theta time.Duration, p float64) (value time.Duration, certified bool) {
	checkQuantile(p)
	n := len(ds)
	if n == 0 {
		return 0, false
	}
	rank, lo, hi := quantileRanks(n, p)
	m := n - lo
	if m > topSlots || len(order) < m {
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
	return interpolate(top[0], top[hi-lo], rank, lo, hi), true
}

// DurationPercentileOfMinOrderedWeighted is DurationPercentileOfMinOrdered
// for the multiset DurationPercentileOfMinWeighted takes: position i stands
// for w[i] values out of n, and each list entry carries its position's
// weight, so the walk never reads w. The leading entries that weigh at
// least the buffer's m slots fill it, the last of them with the copies that
// fit and the rest of its copies competing for slots as later entries do;
// a list that weighs less than m certifies nothing. A certified value is
// DurationPercentileOfMinWeighted's to the bit, by the argument
// DurationPercentileOfMinOrdered makes.
func DurationPercentileOfMinOrderedWeighted(ds []time.Duration, order []OrderedLimit, theta time.Duration, n int, p float64) (value time.Duration, certified bool) {
	checkQuantile(p)
	if n == 0 {
		return 0, false
	}
	rank, lo, hi := quantileRanks(n, p)
	m := n - lo
	if m > topSlots {
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
	for q := j - 1; q >= 0; q-- {
		e := order[q]
		x := min(ds[e.Index], e.Limit)
		c := int(e.Weight)
		if q == j-1 {
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
	return interpolate(top[0], top[hi-lo], rank, lo, hi), true
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
