package stats

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// sortedDurationPercentile is the reference the percentile kernel is held
// to: materialize the element-wise minimum with limit (nil: ds itself),
// sort everything, read the two order statistics.
func sortedDurationPercentile(ds, limit []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return InfDuration
	}
	sorted := slices.Clone(ds)
	for i, l := range limit {
		sorted[i] = min(sorted[i], l)
	}
	slices.Sort(sorted)
	rank := p * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	a, b := sorted[lo], sorted[hi]
	switch {
	case lo == hi:
		return a
	case b == InfDuration:
		return InfDuration
	}
	return a + time.Duration(float64(b-a)*(rank-float64(lo)))
}

// checkAgainstSort fails unless DurationPercentile on ds, and the planned
// OfMin on ds clipped to limit (skipped when nil), equal the sort-based
// reference at p, exactly, and leave their inputs untouched.
func checkAgainstSort(t *testing.T, ds, limit []time.Duration, p float64) {
	t.Helper()
	before, limitBefore := slices.Clone(ds), slices.Clone(limit)
	if got, want := DurationPercentile(ds, p), sortedDurationPercentile(ds, nil, p); got != want {
		t.Fatalf("p=%v of %v: kernel %v, sort reference %v", p, ds, got, want)
	}
	if limit != nil {
		q := NewQuantile(len(ds), p)
		if got, want := q.OfMin(ds, limit), sortedDurationPercentile(ds, limit, p); got != want {
			t.Fatalf("p=%v of min(%v, %v): kernel %v, sort reference %v", p, ds, limit, got, want)
		}
	}
	if !slices.Equal(ds, before) || !slices.Equal(limit, limitBefore) {
		t.Fatalf("p=%v: input modified: %v / %v, was %v / %v", p, ds, limit, before, limitBefore)
	}
}

// sampleDurations draws n observations from `distinct` values (small counts
// force duplicates), each censored with probability inf.
func sampleDurations(r *rand.Rand, n, distinct int, inf float64) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		if r.Float64() < inf {
			ds[i] = InfDuration
		} else {
			ds[i] = time.Duration(r.Intn(distinct)) * 137 * time.Microsecond
		}
	}
	return ds
}

// TestDurationPercentileMatchesSort is the property test of the kernel, in
// its one-column and its clipped two-column form: over sizes on both sides
// of the top-slots boundary (at p = 0.9 the one-pass branch ends between
// n = 100 and n = 1000, at p = 0 between 16 and 17), quantiles, duplicate
// densities and censoring rates — all censored and exactly one finite
// included — it must agree with a full sort to the last bit.
func TestDurationPercentileMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ps := []float64{0, 0.5, 0.9, 1, 1.0 / 3, 0.999}
	for _, n := range []int{1, 2, 3, 10, 16, 17, 100, 257, 1000} {
		for _, distinct := range []int{1, 2, 5, 1 << 20} {
			for _, inf := range []float64{0, 0.1, 0.5, 0.95, 1} {
				for trial := 0; trial < 8; trial++ {
					ds := sampleDurations(r, n, distinct, inf)
					limit := sampleDurations(r, n, distinct, []float64{0, 0.5, 1}[trial%3])
					for _, p := range ps {
						checkAgainstSort(t, ds, limit, p)
					}
				}
			}
		}
		oneFinite := sampleDurations(r, n, 1, 1)
		unclipped := sampleDurations(r, n, 1, 1)
		for at := 0; at < n; at += max(1, n/7) {
			oneFinite[at] = time.Second
			for _, p := range ps {
				checkAgainstSort(t, oneFinite, unclipped, p)
				checkAgainstSort(t, unclipped, oneFinite, p)
			}
			oneFinite[at] = InfDuration
		}
		// Already-ordered inputs are quickselect's classic bad case.
		ordered := sampleDurations(r, n, 1<<20, 0.2)
		slices.Sort(ordered)
		descending := slices.Clone(ordered)
		slices.Reverse(descending)
		for _, p := range ps {
			checkAgainstSort(t, ordered, descending, p)
			checkAgainstSort(t, descending, ordered, p)
		}
		// Negative values down to the most negative duration order like
		// any others (offsets relative to the first arrival can be < 0).
		signed := sampleDurations(r, n, 1<<20, 0.1)
		for i := range signed {
			switch i % 5 {
			case 0:
				signed[i] = -signed[i]
			case 1:
				signed[i] = math.MinInt64
			}
		}
		signedLimit := slices.Clone(signed)
		slices.Reverse(signedLimit)
		for _, p := range ps {
			checkAgainstSort(t, signed, signedLimit, p)
		}
	}
	// The two-slot regime and its boundary: every shape, unclipped, clipped
	// to a random half-censored limit, and serving as that limit.
	twoSlot, wider := 0, 0
	for n := 1; n <= 12; n++ {
		for _, ds := range twoSlotColumns(r, n) {
			limit := sampleDurations(r, n, 1<<20, 0.5)
			for _, p := range twoSlotPercentiles {
				if q := NewQuantile(n, p); q.TwoSlot() {
					twoSlot++
				} else {
					wider++
				}
				checkAgainstSort(t, ds, nil, p)
				checkAgainstSort(t, ds, limit, p)
				checkAgainstSort(t, limit, ds, p)
			}
		}
	}
	if twoSlot == 0 || wider == 0 {
		t.Fatalf("%d two-slot and %d wider quantiles; the table needs both", twoSlot, wider)
	}
}

// twoSlotPercentiles are the quantiles the two-slot table runs. Over the
// sizes 1 to 12 they put the slot count m = n − lo on both sides of two:
// p = 0.9 reads two slots up to 11 values and three at 12, p = 0.999 and 1
// at most two throughout, p = 0 and 0.5 two only for the smallest sizes.
var twoSlotPercentiles = []float64{0, 0.5, 0.9, 0.95, 0.999, 1}

// twoSlotColumns returns the shapes the two-slot table runs at n values:
// besides a random column, the cases where keeping the two largest by min
// and max could go wrong — censored values (all of them, or the last),
// negative ones down to the most negative duration, all values equal, the
// maximum first, last or repeated.
func twoSlotColumns(r *rand.Rand, n int) [][]time.Duration {
	distinct := func() []time.Duration {
		ds := make([]time.Duration, n)
		for i, v := range r.Perm(n) {
			ds[i] = time.Duration(v+1) * 137 * time.Microsecond
		}
		return ds
	}
	censored := sampleDurations(r, n, 5, 0.4)
	censored[r.Intn(n)] = InfDuration
	negative := sampleDurations(r, n, 1<<20, 0)
	for i := range negative {
		negative[i] = -negative[i]
	}
	negative[r.Intn(n)] = math.MinInt64
	equal := make([]time.Duration, n)
	for i := range equal {
		equal[i] = 7 * time.Millisecond
	}
	maxFirst, maxLast, infLast, twoMax := distinct(), distinct(), distinct(), distinct()
	slices.SortFunc(maxFirst, func(x, y time.Duration) int { return cmp.Compare(y, x) })
	slices.Sort(maxLast)
	infLast[n-1] = InfDuration
	twoMax[r.Intn(n)] = slices.Max(twoMax)
	return [][]time.Duration{
		sampleDurations(r, n, 1<<20, 0), censored, sampleDurations(r, n, 1, 1),
		negative, equal, maxFirst, maxLast, infLast, twoMax,
	}
}

// TestDurationPercentileOfMinFillAndScan walks the top-slots pass across
// the sizes where its two loops trade places — below 17 values at p = 0.5
// the fill loop takes everything, at p = 1 it takes one value and the scan
// the rest — with no limit, a limit that is everywhere the smaller value,
// and one that is all censored, over samples dense in duplicates and
// samples whose censored run starts on either side of the two order
// statistics the quantile reads.
func TestDurationPercentileOfMinFillAndScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sizes := []int{100}
	for n := 1; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		allInf := sampleDurations(r, n, 1, 1)
		for _, p := range []float64{0.5, 0.9, 0.95, 1} {
			lo := int(math.Floor(p * float64(n-1)))
			var samples [][]time.Duration
			for _, distinct := range []int{1, 3, 1 << 20} {
				samples = append(samples, sampleDurations(r, n, distinct, 0), sampleDurations(r, n, distinct, 0.3))
			}
			// Censored runs that begin one below, at, and one and two above
			// rank lo, placed anywhere in the sample.
			for start := max(0, lo-1); start <= min(n, lo+2); start++ {
				ds := sampleDurations(r, n, 4, 0)
				for _, i := range r.Perm(n)[start:] {
					ds[i] = InfDuration
				}
				samples = append(samples, ds)
			}
			for _, ds := range samples {
				shorter := make([]time.Duration, n)
				for i, d := range ds {
					shorter[i] = time.Duration(r.Int63n(int64(min(d, time.Second)) + 1))
				}
				checkAgainstSort(t, ds, nil, p)
				checkAgainstSort(t, ds, shorter, p)
				checkAgainstSort(t, ds, allInf, p)
				checkAgainstSort(t, allInf, ds, p)
			}
		}
	}
	// The two-slot scan has no fill loop: at every size up to 12, each
	// shape of the two-slot table under the three limits above.
	for n := 1; n <= 12; n++ {
		allInf := sampleDurations(r, n, 1, 1)
		for _, ds := range twoSlotColumns(r, n) {
			shorter := make([]time.Duration, n)
			for i, d := range ds {
				shorter[i] = min(d, time.Duration(r.Int63n(int64(time.Second))))
			}
			for _, p := range twoSlotPercentiles {
				checkAgainstSort(t, ds, nil, p)
				checkAgainstSort(t, ds, shorter, p)
				checkAgainstSort(t, ds, allInf, p)
			}
		}
	}
}

// FuzzDurationPercentile lets the fuzzer shape the sample (size, duplicate
// density, censoring rate of the column and of its limit, quantile); the
// seeds run in every go test.
func FuzzDurationPercentile(f *testing.F) {
	for _, n := range []uint16{1, 2, 10, 16, 17, 100, 1000} {
		for _, p := range []float64{0, 0.5, 0.9, 1} {
			f.Add(int64(n), n, uint8(3), uint8(64), uint8(128), p)
		}
	}
	// The two-slot regime at p = 0.9 (2, 10 and 11 values) and the first
	// size past it (12), without duplicates.
	for _, n := range []uint16{2, 10, 11, 12} {
		f.Add(int64(n)+1, n, uint8(255), uint8(32), uint8(96), 0.9)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, distinct, infOf256, limitInfOf256 uint8, p float64) {
		if !(p >= 0 && p <= 1) {
			t.Skipf("p=%v outside [0, 1] panics by contract", p)
		}
		r := rand.New(rand.NewSource(seed))
		size := int(n % 2048)
		ds := sampleDurations(r, size, int(distinct)+1, float64(infOf256)/256)
		limit := sampleDurations(r, size, int(distinct)+1, float64(limitInfOf256)/256)
		if seed%4 == 0 {
			for i := range ds {
				ds[i] = -ds[i] // InfDuration becomes the most negative value but one
			}
		}
		checkAgainstSort(t, ds, limit, p)
	})
}

// limitsByDescent lists every position of limit by descending limit; the
// list OfMinOrdered takes for a theta is its prefix of limits above theta,
// which cutAbove returns.
func limitsByDescent(limit []time.Duration) []OrderedLimit {
	order := make([]OrderedLimit, len(limit))
	for i, l := range limit {
		order[i] = OrderedLimit{Limit: l, Index: int32(i)}
	}
	slices.SortStableFunc(order, func(x, y OrderedLimit) int { return cmp.Compare(y.Limit, x.Limit) })
	return order
}

func cutAbove(order []OrderedLimit, theta time.Duration) []OrderedLimit {
	return order[:sort.Search(len(order), func(i int) bool { return order[i].Limit <= theta })]
}

// TestOrderedPassCertifiesOnlyTheScan is the property the ordered pass is
// trusted on: whatever theta cuts the list at — every value of the limit
// column, one below its minimum (everything listed), the most negative
// duration and the censoring sentinel (nothing listed) — a certified value
// is OfMin's to the bit, and nothing is certified for a quantile the
// top-slots pass does not serve. Samples cover sizes on both sides of that
// boundary, duplicates, censored runs in the column and in the limit, and
// negative values. The counts at the end keep the property from holding
// vacuously.
func TestOrderedPassCertifiesOnlyTheScan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	certifiedEarly, certifiedAtEnd, refused := 0, 0, 0
	for _, n := range []int{1, 2, 3, 10, 16, 17, 40, 100, 160, 161, 257} {
		for _, distinct := range []int{1, 3, 1 << 20} {
			for _, inf := range []float64{0, 0.1, 0.5, 1} {
				for trial := 0; trial < 6; trial++ {
					ds := sampleDurations(r, n, distinct, []float64{0, 0.3, 1}[trial%3])
					limit := sampleDurations(r, n, distinct, inf)
					if trial >= 3 {
						for i := range limit {
							if i%4 == 0 && limit[i] != InfDuration {
								limit[i], ds[i] = -limit[i], -ds[i]
							}
						}
					}
					thetas := append(slices.Clone(limit), slices.Min(limit)-1, math.MinInt64, InfDuration)
					full := limitsByDescent(limit)
					for _, p := range []float64{0, 0.5, 0.85, 0.9, 0.95, 0.999, 1} {
						q := NewQuantile(n, p)
						want := q.OfMin(ds, limit)
						for _, theta := range thetas {
							got, certified := q.OfMinOrdered(ds, cutAbove(full, theta), theta)
							switch {
							case !certified:
								refused++
								continue
							case !q.TopSlots():
								t.Fatalf("n=%d p=%v: certified a quantile the top-slots pass does not serve", n, p)
							case got != want:
								t.Fatalf("n=%d p=%v theta=%v of min(%v, %v): certified %v, scan %v", n, p, theta, ds, limit, got, want)
							}
							if theta == math.MinInt64 {
								certifiedAtEnd++
							} else {
								certifiedEarly++
							}
						}
						// With everything listed and nothing to fall below
						// theta, a served quantile is always certified.
						if _, certified := q.OfMinOrdered(ds, full, math.MinInt64); certified != q.TopSlots() {
							t.Fatalf("n=%d p=%v: full list certified=%v, served=%v", n, p, certified, q.TopSlots())
						}
					}
				}
			}
		}
	}
	if certifiedEarly == 0 || certifiedAtEnd == 0 || refused == 0 {
		t.Fatalf("%d certified under a cut list, %d under the full list, %d refused; the property needs all three", certifiedEarly, certifiedAtEnd, refused)
	}
}

// expandWeighted is the sample a weighted kernel stands for: position i of
// ds and of limit (nil: no limit), repeated w[i] times.
func expandWeighted(ds, limit []time.Duration, w []int32) (eds, elimit []time.Duration) {
	for i, c := range w {
		for ; c > 0; c-- {
			eds = append(eds, ds[i])
			if limit != nil {
				elimit = append(elimit, limit[i])
			}
		}
	}
	return eds, elimit
}

// weightedCounts tallies what checkWeighted exercised, so the tests that
// run it can show their properties do not hold vacuously.
type weightedCounts struct {
	straddled, selected, certified, refused int
}

// checkWeighted fails unless both weighted kernels agree with the unit
// kernel run on the expanded sample, to the bit: OfMinWeighted without and
// with the limit, and OfMinOrderedWeighted wherever it certifies, under
// every theta the ordered-pass property test cuts its list at. With the
// whole list and nothing below theta, a quantile the top-slots pass serves
// must be certified. Inputs must be left as they were.
func checkWeighted(t *testing.T, ds, limit []time.Duration, w []int32, p float64, counts *weightedCounts) {
	t.Helper()
	before, limitBefore, wBefore := slices.Clone(ds), slices.Clone(limit), slices.Clone(w)
	eds, elimit := expandWeighted(ds, limit, w)
	n := len(eds)
	q := NewQuantile(n, p)
	if got, want := q.OfMinWeighted(ds, nil, w), DurationPercentile(eds, p); got != want {
		t.Fatalf("p=%v of %v weighted %v: kernel %v, expanded %v", p, ds, w, got, want)
	}
	want := q.OfMin(eds, elimit)
	if got := q.OfMinWeighted(ds, limit, w); got != want {
		t.Fatalf("p=%v of min(%v, %v) weighted %v: kernel %v, expanded %v", p, ds, limit, w, got, want)
	}
	if n > 0 {
		if m := q.m; m > topSlots {
			counts.selected++
		} else {
			for i, sum := 0, 0; i < len(w) && sum < m; i++ {
				if sum += int(w[i]); sum > m && int(w[i]) > sum-m {
					counts.straddled++
				}
			}
		}
	}
	full := limitsByDescent(limit)
	for i := range full {
		full[i].Weight = w[full[i].Index]
	}
	thetas := append(slices.Clone(limit), math.MinInt64, InfDuration)
	if len(limit) > 0 {
		thetas = append(thetas, slices.Min(limit)-1)
	}
	for _, theta := range thetas {
		got, certified := q.OfMinOrderedWeighted(ds, cutAbove(full, theta), theta)
		switch {
		case !certified:
			counts.refused++
			continue
		case !q.TopSlots():
			t.Fatalf("n=%d p=%v: certified a quantile the top-slots pass does not serve", n, p)
		case got != want:
			t.Fatalf("n=%d p=%v theta=%v of min(%v, %v) weighted %v: certified %v, expanded %v", n, p, theta, ds, limit, w, got, want)
		}
		counts.certified++
	}
	if _, certified := q.OfMinOrderedWeighted(ds, full, math.MinInt64); certified != q.TopSlots() {
		t.Fatalf("n=%d p=%v: full list certified=%v, served=%v", n, p, certified, q.TopSlots())
	}
	if !slices.Equal(ds, before) || !slices.Equal(limit, limitBefore) || !slices.Equal(w, wBefore) {
		t.Fatalf("p=%v: input modified", p)
	}
}

// sampleWeights draws n multiplicities in [1, maxWeight], a zero (a value
// that stands for nothing) with probability zero.
func sampleWeights(r *rand.Rand, n, maxWeight int, zero float64) []int32 {
	w := make([]int32, n)
	for i := range w {
		if r.Float64() >= zero {
			w[i] = int32(1 + r.Intn(maxWeight))
		}
	}
	return w
}

// TestWeightedPercentileMatchesExpanded is the property the weighted
// kernels are trusted on: a multiset given by its distinct values and their
// multiplicities has the percentile of the multiset written out. Samples
// cover unit weights (the unit kernel's own paths), weights that straddle
// the top-slots fill boundary, one weight heavy enough to fill the buffer
// alone, zero weights, quantiles deeper than the buffer (the select path),
// censored and negative values, and every theta of the ordered pass. The
// counts at the end keep the property from holding vacuously.
func TestWeightedPercentileMatchesExpanded(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	var counts weightedCounts
	ps := []float64{0, 1.0 / 3, 0.5, 0.85, 0.9, 0.95, 0.999, 1}
	for _, d := range []int{1, 2, 3, 5, 10, 16, 17, 40, 100} {
		for _, maxWeight := range []int{1, 3, 12, 40} {
			for trial := 0; trial < 6; trial++ {
				ds := sampleDurations(r, d, []int{2, 5, 1 << 20}[trial%3], []float64{0, 0.2, 0.6}[trial%3])
				limit := sampleDurations(r, d, []int{2, 5, 1 << 20}[trial%3], []float64{0, 0.5, 0.1}[trial%3])
				w := sampleWeights(r, d, maxWeight, []float64{0, 0, 0.2}[trial%3])
				if trial == 4 { // one value heavy enough to fill the buffer alone
					w[r.Intn(d)] = 30
				}
				if trial >= 3 {
					for i := range ds {
						if i%3 == 0 && ds[i] != InfDuration {
							ds[i], limit[i] = -ds[i], -limit[i]
						}
					}
				}
				for _, p := range ps {
					checkWeighted(t, ds, limit, w, p, &counts)
				}
			}
		}
	}
	if counts.straddled == 0 || counts.selected == 0 || counts.certified == 0 || counts.refused == 0 {
		t.Fatalf("%+v: the property needs every count non-zero", counts)
	}
}

// FuzzDurationPercentileWeighted lets the fuzzer shape a weighted sample
// (distinct values, their largest multiplicity, duplicate density, censoring
// rates, quantile) and checks both weighted kernels against the unit kernel
// on the expanded sample; the seeds run in every go test.
func FuzzDurationPercentileWeighted(f *testing.F) {
	for _, d := range []uint16{1, 2, 10, 16, 17, 100} {
		for _, maxWeight := range []uint8{1, 3, 40} {
			for _, p := range []float64{0, 0.5, 0.9, 1} {
				f.Add(int64(d)*int64(maxWeight), d, maxWeight, uint8(3), uint8(64), uint8(128), p)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, d uint16, maxWeight, distinct, infOf256, limitInfOf256 uint8, p float64) {
		if !(p >= 0 && p <= 1) {
			t.Skipf("p=%v outside [0, 1] panics by contract", p)
		}
		r := rand.New(rand.NewSource(seed))
		size := int(d % 512)
		ds := sampleDurations(r, size, int(distinct)+1, float64(infOf256)/256)
		limit := sampleDurations(r, size, int(distinct)+1, float64(limitInfOf256)/256)
		w := sampleWeights(r, size, int(maxWeight%64)+1, float64(seed%3)/8)
		if seed%4 == 0 {
			for i := range ds {
				ds[i], limit[i] = -ds[i], -limit[i] // InfDuration becomes the most negative value but one
			}
		}
		var counts weightedCounts
		checkWeighted(t, ds, limit, w, p, &counts)
	})
}

// TestQuantilePlan pins where the regimes change at the default p = 0.9
// (two slots through 11 values, top slots through 151), the zero plan, and
// the plan's two contracts: p outside [0, 1] and a column of another length
// panic.
func TestQuantilePlan(t *testing.T) {
	for n := 1; n <= 200; n++ {
		q := NewQuantile(n, 0.9)
		if q.n != n || q.TwoSlot() != (n <= 11) || q.TopSlots() != (n <= 151) {
			t.Fatalf("n=%d: planned over %d, two-slot %v, top slots %v", n, q.n, q.TwoSlot(), q.TopSlots())
		}
	}
	zero := NewQuantile(0, 0.9)
	if zero != (Quantile{}) || zero.TwoSlot() || zero.TopSlots() || zero.OfMin(nil, nil) != InfDuration {
		t.Fatalf("plan of no values %+v", zero)
	}
	if _, certified := zero.OfMinOrdered(nil, nil, 0); certified {
		t.Fatal("plan of no values certified an ordered pass")
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("p = 1.5", func() { NewQuantile(3, 1.5) })
	mustPanic("p = -0.1", func() { NewQuantile(3, -0.1) })
	three := NewQuantile(3, 0.9)
	mustPanic("4 values for a plan over 3", func() { three.OfMin(make([]time.Duration, 4), nil) })
	mustPanic("2 values for an ordered plan over 3", func() { three.OfMinOrdered(make([]time.Duration, 2), nil, 0) })
}
