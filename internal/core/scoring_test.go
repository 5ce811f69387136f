package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/perigee-net/perigee/internal/stats"
)

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestMethodString(t *testing.T) {
	if Vanilla.String() != "Perigee-Vanilla" || UCB.String() != "Perigee-UCB" || Subset.String() != "Perigee-Subset" {
		t.Fatal("method names changed")
	}
	if Method(9).String() != "Method(9)" {
		t.Fatalf("got %q", Method(9).String())
	}
	if Method(9).Valid() || Method(-1).Valid() {
		t.Fatal("invalid methods reported valid")
	}
}

func TestNewObservations(t *testing.T) {
	o := NewObservations([]int{3, 7}, 4)
	if len(o.Offsets) != 4 {
		t.Fatalf("blocks = %d", len(o.Offsets))
	}
	for _, row := range o.Offsets {
		if len(row) != 2 {
			t.Fatalf("row width = %d", len(row))
		}
		for _, v := range row {
			if v != stats.InfDuration {
				t.Fatal("offsets should start censored")
			}
		}
	}
}

func TestVanillaScoresPrefersFasterNeighbor(t *testing.T) {
	o := NewObservations([]int{10, 20}, 10)
	for b := 0; b < 10; b++ {
		o.Offsets[b][0] = ms(5)  // always 5ms behind the best
		o.Offsets[b][1] = ms(50) // always 50ms behind
	}
	scores := VanillaScores(o, 0.9)
	if scores[0] >= scores[1] {
		t.Fatalf("faster neighbor scored worse: %v vs %v", scores[0], scores[1])
	}
	ranked := RankByScore(o, scores)
	if ranked[0] != 0 {
		t.Fatalf("rank order %v, want fastest first", ranked)
	}
}

func TestVanillaScoresCensoredWorst(t *testing.T) {
	o := NewObservations([]int{1, 2}, 5)
	for b := 0; b < 5; b++ {
		o.Offsets[b][0] = ms(100) // slow but delivers
		// neighbor 1 never delivers: stays InfDuration
	}
	scores := VanillaScores(o, 0.9)
	if scores[1] != stats.InfDuration {
		t.Fatalf("non-delivering neighbor score = %v, want InfDuration", scores[1])
	}
	if scores[0] >= scores[1] {
		t.Fatal("delivering neighbor must outrank silent one")
	}
}

func TestRankByScoreTieBreak(t *testing.T) {
	o := NewObservations([]int{42, 7}, 1)
	scores := []time.Duration{ms(5), ms(5)}
	ranked := RankByScore(o, scores)
	// Equal scores: lower node ID (7, at index 1) first.
	if ranked[0] != 1 || ranked[1] != 0 {
		t.Fatalf("tie-break wrong: %v", ranked)
	}
}

func TestSubsetSelectComplementarity(t *testing.T) {
	// Three neighbors, 10 blocks. A has the best raw percentile so the
	// greedy picks it first (fast for blocks 0-4, 40ms otherwise). B
	// complements A: fast exactly where A is slow, but its raw percentile
	// (100ms) is the worst of the three. C is uniformly mediocre (45ms).
	// Vanilla would keep {A, C}; the joint transform must keep {A, B}.
	o := NewObservations([]int{0, 1, 2}, 10)
	for b := 0; b < 10; b++ {
		if b < 5 {
			o.Offsets[b][0] = ms(1)
			o.Offsets[b][1] = ms(100)
		} else {
			o.Offsets[b][0] = ms(40)
			o.Offsets[b][1] = ms(2)
		}
		o.Offsets[b][2] = ms(45)
	}
	scores := VanillaScores(o, 0.9)
	if !(scores[0] < scores[2] && scores[2] < scores[1]) {
		t.Fatalf("test setup broken: want A < C < B individually, got %v", scores)
	}
	ranked := RankByScore(o, scores)
	if ranked[0] != 0 || ranked[1] != 2 {
		t.Fatalf("vanilla would keep %v, setup expects [0 2 ...]", ranked)
	}
	chosen := SubsetSelect(o, 2, 0.9)
	if len(chosen) != 2 || chosen[0] != 0 || chosen[1] != 1 {
		t.Fatalf("subset chose %v, want [0 1] (complementary pair)", chosen)
	}
}

func TestSubsetSelectDegenerate(t *testing.T) {
	o := NewObservations([]int{5, 6, 7}, 3)
	if got := SubsetSelect(o, 5, 0.9); len(got) != 3 {
		t.Fatalf("retain > k should return all: %v", got)
	}
	if got := SubsetSelect(o, 0, 0.9); got != nil {
		t.Fatalf("retain 0 should return nil: %v", got)
	}
}

func TestSubsetSelectTieBreaksOnIndividualScore(t *testing.T) {
	// Neighbor 0 delivers first on every block, so after it is chosen the
	// joint transform zeroes out everyone else — a full tie. The fast
	// neighbor 2 must win the tie over the never-delivering neighbor 1
	// even though neighbor 1 has the lower ID.
	o := NewObservations([]int{10, 20, 30}, 6)
	for b := 0; b < 6; b++ {
		o.Offsets[b][0] = 0      // always first
		o.Offsets[b][2] = ms(15) // fast but redundant
		// neighbor index 1 (ID 20) never delivers: stays censored
	}
	chosen := SubsetSelect(o, 2, 0.9)
	if len(chosen) != 2 || chosen[0] != 0 || chosen[1] != 2 {
		t.Fatalf("subset chose %v, want [0 2]: ties must break on individual score", chosen)
	}
}

func TestSubsetSelectFirstPickIsVanillaBest(t *testing.T) {
	o := NewObservations([]int{0, 1, 2}, 4)
	for b := 0; b < 4; b++ {
		o.Offsets[b][0] = ms(30)
		o.Offsets[b][1] = ms(10)
		o.Offsets[b][2] = ms(20)
	}
	chosen := SubsetSelect(o, 1, 0.9)
	if len(chosen) != 1 || chosen[0] != 1 {
		t.Fatalf("first pick %v, want [1]", chosen)
	}
}

// Property: SubsetSelect returns exactly min(retain, k) distinct, sorted,
// in-range indices for arbitrary observation matrices.
func TestSubsetSelectProperty(t *testing.T) {
	check := func(raw []uint16, kRaw, retainRaw uint8) bool {
		k := int(kRaw%6) + 1
		retain := int(retainRaw % 8)
		blocks := 3
		nbrs := make([]int, k)
		for i := range nbrs {
			nbrs[i] = i * 10
		}
		o := NewObservations(nbrs, blocks)
		pos := 0
		for b := 0; b < blocks; b++ {
			for i := 0; i < k; i++ {
				if pos < len(raw) {
					o.Offsets[b][i] = time.Duration(raw[pos]) * time.Microsecond
					pos++
				}
			}
		}
		chosen := SubsetSelect(o, retain, 0.9)
		want := retain
		if k < want {
			want = k
		}
		if len(chosen) != want {
			return false
		}
		for i, c := range chosen {
			if c < 0 || c >= k {
				return false
			}
			if i > 0 && chosen[i-1] >= c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sortedPercentile is the textbook quantile the scoring kernels are held
// to: sort, interpolate between the two closest ranks, censored if the
// upper one is.
func sortedPercentile(ds []time.Duration, p float64) time.Duration {
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	rank := p * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	a, b := sorted[lo], sorted[hi]
	if lo == hi || b == stats.InfDuration {
		return b
	}
	return a + time.Duration(float64(b-a)*(rank-float64(lo)))
}

// referenceSubsetSelect is §4.3's greedy selection written straight down:
// every step materializes each candidate's per-block minimum against the
// chosen set, sorts it for the percentile, and breaks ties by individual
// score and then neighbor ID.
func referenceSubsetSelect(obs Observations, retain int, pct float64) []int {
	k, blocks := len(obs.Neighbors), len(obs.Offsets)
	column := func(i int, best []time.Duration) []time.Duration {
		col := make([]time.Duration, blocks)
		for b := range col {
			col[b] = min(obs.Offsets[b][i], best[b])
		}
		return col
	}
	best := make([]time.Duration, blocks)
	for b := range best {
		best[b] = stats.InfDuration
	}
	individual := make([]time.Duration, k)
	for i := range individual {
		individual[i] = sortedPercentile(column(i, best), pct)
	}
	var chosen []int
	for len(chosen) < min(retain, k) {
		pick, pickScore := -1, stats.InfDuration
		for i := 0; i < k; i++ {
			if slices.Contains(chosen, i) {
				continue
			}
			score := sortedPercentile(column(i, best), pct)
			better := pick == -1 || score < pickScore
			if !better && score == pickScore {
				if individual[i] != individual[pick] {
					better = individual[i] < individual[pick]
				} else {
					better = obs.Neighbors[i] < obs.Neighbors[pick]
				}
			}
			if better {
				pick, pickScore = i, score
			}
		}
		chosen = append(chosen, pick)
		best = column(pick, best)
	}
	slices.Sort(chosen)
	return chosen
}

// TestSubsetSelectMatchesReference holds the optimized selection — columns
// transposed once, the first step reusing the individual scores, the
// percentile of a minimum taken without materializing it — to the
// straightforward one, index for index, over random matrices with censored
// cells, wholly censored columns and all-tie rounds, at the paper's 100
// blocks and at a 10-block observation window.
func TestSubsetSelectMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, blocks := range []int{100, 10} {
		for trial := 0; trial < 300; trial++ {
			k := 2 + r.Intn(9)
			nbrs := r.Perm(1000)[:k]
			o := NewObservations(nbrs, blocks)
			// Few distinct values force joint-score ties; trial%5 == 0 is an
			// all-tie round (every neighbor delivers every block first).
			distinct := []int{1, 1, 3, 50, 1 << 20}[trial%5]
			censor := []float64{0, 0.05, 0.5}[trial%3]
			for b := range o.Offsets {
				for i := range o.Offsets[b] {
					if r.Float64() >= censor {
						o.Offsets[b][i] = time.Duration(r.Intn(distinct)) * 313 * time.Microsecond
					}
				}
			}
			if trial%4 == 1 { // a neighbor that never delivered anything
				dead := r.Intn(k)
				for b := range o.Offsets {
					o.Offsets[b][dead] = stats.InfDuration
				}
			}
			for _, retain := range []int{1, k / 2, k - 1, k} {
				got, want := SubsetSelect(o, retain, 0.9), referenceSubsetSelect(o, retain, 0.9)
				if !slices.Equal(got, want) {
					t.Fatalf("blocks=%d trial=%d k=%d retain=%d: chose %v, reference %v", blocks, trial, k, retain, got, want)
				}
			}
		}
	}
}

func TestUCBBounds(t *testing.T) {
	samples := []time.Duration{ms(10), ms(20), ms(30), ms(40), ms(50)}
	lcb, ucb := UCBBounds(samples, 0.9, ms(100))
	if lcb > ucb {
		t.Fatalf("lcb %v above ucb %v", lcb, ucb)
	}
	est := stats.DurationPercentile(samples, 0.9)
	if !(lcb <= est && est <= ucb) {
		t.Fatalf("estimate %v outside [%v, %v]", est, lcb, ucb)
	}
	if lcb < 0 {
		t.Fatal("lcb clamped below zero")
	}
}

func TestUCBBoundsSingleSampleHasZeroBonus(t *testing.T) {
	lcb, ucb := UCBBounds([]time.Duration{ms(25)}, 0.9, ms(100))
	if lcb != ms(25) || ucb != ms(25) {
		t.Fatalf("log(1)=0 should give zero bonus, got [%v, %v]", lcb, ucb)
	}
}

func TestUCBBoundsShrinkWithSamples(t *testing.T) {
	// More samples of the same distribution narrow the interval.
	small := make([]time.Duration, 5)
	large := make([]time.Duration, 500)
	for i := range small {
		small[i] = ms(10)
	}
	for i := range large {
		large[i] = ms(10)
	}
	l1, u1 := UCBBounds(small, 0.9, ms(100))
	l2, u2 := UCBBounds(large, 0.9, ms(100))
	if (u1 - l1) <= (u2 - l2) {
		t.Fatalf("interval did not shrink: small=%v large=%v", u1-l1, u2-l2)
	}
}

func TestUCBBoundsEmpty(t *testing.T) {
	lcb, ucb := UCBBounds(nil, 0.9, ms(100))
	if lcb != stats.InfDuration || ucb != stats.InfDuration {
		t.Fatalf("empty samples should be (Inf, Inf), got (%v, %v)", lcb, ucb)
	}
}

func TestUCBEvict(t *testing.T) {
	// Neighbor 2's lcb (90) is above neighbor 0's ucb (50): evict 2.
	lcbs := []time.Duration{ms(10), ms(40), ms(90)}
	ucbs := []time.Duration{ms(50), ms(80), ms(130)}
	if got := UCBEvict(lcbs, ucbs); got != 2 {
		t.Fatalf("evict = %d, want 2", got)
	}
}

func TestUCBEvictNoSeparation(t *testing.T) {
	// Overlapping intervals: keep everyone.
	lcbs := []time.Duration{ms(10), ms(20)}
	ucbs := []time.Duration{ms(50), ms(60)}
	if got := UCBEvict(lcbs, ucbs); got != -1 {
		t.Fatalf("evict = %d, want -1", got)
	}
}

func TestUCBEvictDegenerate(t *testing.T) {
	if UCBEvict(nil, nil) != -1 {
		t.Fatal("empty inputs must not evict")
	}
	if UCBEvict([]time.Duration{1}, []time.Duration{1, 2}) != -1 {
		t.Fatal("mismatched inputs must not evict")
	}
}

func TestUCBEvictSilentNeighbor(t *testing.T) {
	// A neighbor with no samples has (Inf, Inf) bounds and gets evicted as
	// soon as any other neighbor has a finite ucb.
	lcbs := []time.Duration{ms(10), stats.InfDuration}
	ucbs := []time.Duration{ms(50), stats.InfDuration}
	if got := UCBEvict(lcbs, ucbs); got != 1 {
		t.Fatalf("evict = %d, want silent neighbor 1", got)
	}
}
