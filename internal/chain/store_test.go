package chain

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// testChain builds a linear chain of n blocks on top of parent, with
// nonces drawn from the given base so distinct branches never collide.
func testChain(parent *Block, n int, base uint64) []*Block {
	out := make([]*Block, n)
	for i := range out {
		out[i] = NewBlock(parent, nil, time.UnixMilli(int64(base)+int64(i)), base+uint64(i))
		parent = out[i]
	}
	return out
}

func newTestStore(t *testing.T, tag string) (*Store, *Block) {
	t.Helper()
	g := NewGenesis(tag)
	s, err := NewStore(g)
	if err != nil {
		t.Fatal(err)
	}
	return s, g
}

// Equal-height forks must resolve to the earliest-seen block no matter in
// which order AddAt learns about them.
func TestAddAtTieBreaksBySeenTime(t *testing.T) {
	g := NewGenesis("tie")
	a := NewBlock(g, nil, time.UnixMilli(1), 1)
	b := NewBlock(g, nil, time.UnixMilli(2), 2)

	for _, order := range [][2]struct {
		b    *Block
		seen time.Duration
	}{
		{{a, 10 * time.Millisecond}, {b, 20 * time.Millisecond}},
		{{b, 20 * time.Millisecond}, {a, 10 * time.Millisecond}},
	} {
		s, err := NewStore(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range order {
			if _, err := s.AddAt(off.b, off.seen); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Tip().Header.Hash(); got != a.Header.Hash() {
			t.Fatalf("tip %s, want earliest-seen block a (%s)", got, a.Header.Hash())
		}
	}
}

// Equal seen times fall back to the hash tie-break, still order-independent.
func TestAddAtTieBreaksByHashOnEqualTimes(t *testing.T) {
	g := NewGenesis("hash-tie")
	a := NewBlock(g, nil, time.UnixMilli(1), 1)
	b := NewBlock(g, nil, time.UnixMilli(2), 2)
	want := a
	if bytesCompare(b.Header.Hash(), a.Header.Hash()) < 0 {
		want = b
	}
	for _, first := range []*Block{a, b} {
		second := b
		if first == b {
			second = a
		}
		s, err := NewStore(g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddAt(first, time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddAt(second, time.Second); err != nil {
			t.Fatal(err)
		}
		if got := s.Tip().Header.Hash(); got != want.Header.Hash() {
			t.Fatalf("tip %s, want hash-minimal block %s", got, want.Header.Hash())
		}
	}
}

func bytesCompare(a, b Hash) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// The resolved tip must be identical for any concurrent interleaving of
// AddAt calls — the property the continuous-time workload engine depends
// on at every worker count.
func TestAddAtDeterministicUnderConcurrency(t *testing.T) {
	g := NewGenesis("conc-tie")
	branchA := testChain(g, 5, 100)
	branchB := testChain(g, 5, 200)
	type offer struct {
		b    *Block
		seen time.Duration
	}
	var offers []offer
	for i, b := range branchA {
		offers = append(offers, offer{b, time.Duration(10+i) * time.Millisecond})
	}
	for i, b := range branchB {
		// Same heights, strictly later seen times: branch A must win ties.
		offers = append(offers, offer{b, time.Duration(15+i) * time.Millisecond})
	}

	reference, err := NewStore(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range offers {
		if _, err := reference.AddAt(o.b, o.seen); err != nil {
			t.Fatal(err)
		}
	}
	wantTip := reference.Tip().Header.Hash()
	if wantTip != branchA[len(branchA)-1].Header.Hash() {
		t.Fatalf("reference tip is not branch A's head")
	}

	for trial := 0; trial < 20; trial++ {
		shuffled := append([]offer(nil), offers...)
		r := rand.New(rand.NewSource(int64(trial)))
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		s, err := NewStore(g)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(shuffled); i += 4 {
					// Out-of-order offers may stash; that's fine — the
					// parent's arrival reconnects them.
					_, _ = s.AddAt(shuffled[i].b, shuffled[i].seen)
				}
			}()
		}
		wg.Wait()
		// Re-offer anything still stranded (a child can race ahead of a
		// parent that itself was stashed by another goroutine's ordering).
		for s.OrphanCount() > 0 {
			progressed := false
			for _, o := range shuffled {
				if s.Has(o.b.Header.Hash()) {
					continue
				}
				if res, err := s.AddAt(o.b, o.seen); err == nil && !res.Stashed {
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
		if got := s.Tip().Header.Hash(); got != wantTip {
			t.Fatalf("trial %d: tip %s, want %s", trial, got, wantTip)
		}
	}
}

// A child offered before its parent stashes, then reconnects — including
// whole stashed sub-chains — when the parent arrives.
func TestAddAtOrphanUnstashing(t *testing.T) {
	s, g := newTestStore(t, "orphan")
	chain := testChain(g, 4, 1)

	// Offer 2, 3, 4 first: all stash (2's parent unknown; 3 waits on 2...).
	for i := 3; i >= 1; i-- {
		res, err := s.AddAt(chain[i], time.Duration(i)*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stashed {
			t.Fatalf("block %d should have stashed", i)
		}
	}
	if got := s.OrphanCount(); got != 3 {
		t.Fatalf("orphan count %d, want 3", got)
	}
	if s.Height() != 0 {
		t.Fatalf("height %d before parent arrival, want 0", s.Height())
	}

	// The missing link connects everything in one cascade.
	res, err := s.AddAt(chain[0], 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stashed || res.Connected != 4 {
		t.Fatalf("connecting the base: %+v, want Connected=4", res)
	}
	if !res.TipChanged || res.ReorgDepth != 0 {
		t.Fatalf("cascade should extend the tip without a reorg: %+v", res)
	}
	if s.OrphanCount() != 0 {
		t.Fatalf("orphans remain after unstash: %d", s.OrphanCount())
	}
	if s.Height() != 4 {
		t.Fatalf("height %d, want 4", s.Height())
	}
	if s.Tip().Header.Hash() != chain[3].Header.Hash() {
		t.Fatal("tip is not the unstashed chain head")
	}
}

// Reorg depth is the number of abandoned previously-canonical blocks.
func TestAddAtReorgDepth(t *testing.T) {
	s, g := newTestStore(t, "reorg")
	short := testChain(g, 2, 10)
	long := testChain(g, 3, 20)

	for i, b := range short {
		if _, err := s.AddAt(b, time.Duration(i)*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// The rival branch stays behind until its third block.
	for i, b := range long[:2] {
		res, err := s.AddAt(b, time.Duration(100+i)*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.TipChanged {
			t.Fatalf("rival block %d moved the tip early", i)
		}
	}
	res, err := s.AddAt(long[2], 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TipChanged || res.ReorgDepth != 2 {
		t.Fatalf("overtaking reorg: %+v, want TipChanged with depth 2", res)
	}
	if s.Tip().Header.Hash() != long[2].Header.Hash() {
		t.Fatal("tip did not move to the longer branch")
	}

	// Extending the new tip is depth 0.
	ext := NewBlock(long[2], nil, time.UnixMilli(99), 99)
	res, err = s.AddAt(ext, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TipChanged || res.ReorgDepth != 0 {
		t.Fatalf("extension: %+v, want TipChanged with depth 0", res)
	}
}

func TestAddAtDuplicates(t *testing.T) {
	s, g := newTestStore(t, "dup")
	b1 := NewBlock(g, nil, time.UnixMilli(1), 1)
	if _, err := s.AddAt(b1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddAt(b1, 2*time.Millisecond); !errors.Is(err, ErrDuplicateBlock) {
		t.Fatalf("connected duplicate: %v", err)
	}
	orphan := NewBlock(b1, nil, time.UnixMilli(2), 2)
	orphan2 := NewBlock(orphan, nil, time.UnixMilli(3), 3)
	if res, err := s.AddAt(orphan2, time.Millisecond); err != nil || !res.Stashed {
		t.Fatalf("stash: %+v, %v", res, err)
	}
	if _, err := s.AddAt(orphan2, 2*time.Millisecond); !errors.Is(err, ErrDuplicateBlock) {
		t.Fatalf("stashed duplicate: %v", err)
	}
}

func TestAddAtOrphanPoolCap(t *testing.T) {
	s, g := newTestStore(t, "cap")
	missing := NewBlock(g, nil, time.UnixMilli(1), 1)
	next := missing
	for i := 0; i < MaxOrphans; i++ {
		child := NewBlock(next, nil, time.UnixMilli(int64(i)+2), uint64(i)+2)
		res, err := s.AddAt(child, time.Duration(i))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stashed {
			t.Fatalf("block %d did not stash", i)
		}
		next = child
	}
	over := NewBlock(next, nil, time.UnixMilli(1<<20), 1<<20)
	if _, err := s.AddAt(over, time.Hour); !errors.Is(err, ErrOrphanPoolFull) {
		t.Fatalf("orphan pool overflow: %v", err)
	}
}

// Add stashes a block whose parent is unknown, once however often it is
// offered, and the parent's arrival connects it.
func TestAddStashesOrphans(t *testing.T) {
	s, g := newTestStore(t, "strict")
	b1 := NewBlock(g, nil, time.UnixMilli(1), 1)
	b2 := NewBlock(b1, nil, time.UnixMilli(2), 2)
	if added, err := s.Add(b2, b2.Header.Hash()); err != nil || !added.Stashed {
		t.Fatalf("Add of an orphan: %+v, %v", added, err)
	}
	if added, err := s.Add(b2, b2.Header.Hash()); !errors.Is(err, ErrDuplicateBlock) || !added.Stashed {
		t.Fatalf("Add of a stashed orphan again: %+v, %v", added, err)
	}
	if s.OrphanCount() != 1 || s.Height() != 0 {
		t.Fatalf("%d stashed at height %d, want 1 at 0", s.OrphanCount(), s.Height())
	}
	added, err := s.Add(b1, b1.Header.Hash())
	if err != nil || added.Stashed || len(added.Unstashed) != 1 || added.Unstashed[0] != b2.Header.Hash() {
		t.Fatalf("Add of the parent: %+v, %v", added, err)
	}
	if s.Height() != 2 || s.OrphanCount() != 0 {
		t.Fatalf("height %d with %d stashed, want 2 with 0", s.Height(), s.OrphanCount())
	}
}

// Add stamps a stashed block for the tie rule when it connects, not when it
// arrived: an equal-height rival that connected in between keeps the tip.
func TestAddStampsUnstashedBlockAtConnect(t *testing.T) {
	s, g := newTestStore(t, "stamp")
	p := NewBlock(g, nil, time.UnixMilli(1), 1)
	early := NewBlock(p, nil, time.UnixMilli(2), 2)
	rivalParent := NewBlock(g, nil, time.UnixMilli(3), 3)
	rival := NewBlock(rivalParent, nil, time.UnixMilli(4), 4)
	for _, b := range []*Block{early, rivalParent, rival, p} {
		if _, err := s.Add(b, b.Header.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Has(early.Header.Hash()) {
		t.Fatal("the stashed block did not connect")
	}
	if s.Tip().Header.Hash() != rival.Header.Hash() {
		t.Fatal("a block unstashed at the tip's height took it from the rival that connected first")
	}
}

// An unstashed block at the wrong height under its parent goes, with every
// block waiting on it; its siblings still connect, the offered block's add
// succeeds and the stash is left empty. Add and AddAt share the rule.
func TestUnstashDropsBadHeightBranch(t *testing.T) {
	for _, door := range []string{"Add", "AddAt"} {
		t.Run(door, func(t *testing.T) {
			s, g := newTestStore(t, "bad-child")
			p := NewBlock(g, nil, time.UnixMilli(1), 1)
			bad := NewBlock(p, nil, time.UnixMilli(2), 2)
			bad.Header.Height = 7
			underBad := NewBlock(bad, nil, time.UnixMilli(3), 3)
			good1 := NewBlock(p, nil, time.UnixMilli(4), 4)
			good2 := NewBlock(p, nil, time.UnixMilli(5), 5)
			offer := func(b *Block, at time.Duration) (stashed bool, err error) {
				if door == "Add" {
					added, err := s.Add(b, b.Header.Hash())
					return added.Stashed, err
				}
				res, err := s.AddAt(b, at)
				return res.Stashed, err
			}
			// bad is seen first among p's children, so it unstashes first.
			for i, b := range []*Block{bad, underBad, good1, good2} {
				if stashed, err := offer(b, time.Duration(i+1)); err != nil || !stashed {
					t.Fatalf("child %d: stashed=%v, %v", i, stashed, err)
				}
			}
			if door == "Add" {
				added, err := s.Add(p, p.Header.Hash())
				if err != nil {
					t.Fatal(err)
				}
				if want := []Hash{good1.Header.Hash(), good2.Header.Hash()}; !slices.Equal(added.Unstashed, want) {
					t.Fatalf("unstashed %v, want %v", added.Unstashed, want)
				}
				if want := []Hash{bad.Header.Hash(), underBad.Header.Hash()}; !slices.Equal(added.Dropped, want) {
					t.Fatalf("dropped %v, want %v", added.Dropped, want)
				}
			} else if res, err := s.AddAt(p, 0); err != nil || res.Connected != 3 {
				t.Fatalf("AddAt of the parent: %+v, %v", res, err)
			}
			if got := s.OrphanCount(); got != 0 {
				t.Fatalf("%d blocks left stashed, want 0", got)
			}
			for _, b := range []*Block{p, good1, good2} {
				if !s.Has(b.Header.Hash()) {
					t.Fatalf("block at height %d did not connect", b.Header.Height)
				}
			}
			if s.Has(bad.Header.Hash()) || s.Has(underBad.Header.Hash()) {
				t.Fatal("the bad branch connected")
			}
			// A dropped sibling is gone, not left behind as a stashed duplicate.
			if _, err := offer(good1, time.Hour); !errors.Is(err, ErrDuplicateBlock) {
				t.Fatalf("re-offering a connected sibling: %v", err)
			}
			if _, err := offer(bad, time.Hour); !errors.Is(err, ErrBadHeight) {
				t.Fatalf("re-offering the bad child: %v", err)
			}
		})
	}
}

// An invalid block is told apart from a misplaced one, by both doors, and
// validity is judged before position: a tampered orphan is invalid, not
// an orphan.
func TestAddWrapsInvalidBlock(t *testing.T) {
	s, g := newTestStore(t, "invalid")
	unknown := NewBlock(g, nil, time.UnixMilli(1), 1)
	tampered := NewBlock(unknown, [][]byte{[]byte("tx")}, time.UnixMilli(2), 2)
	tampered.Txs = [][]byte{[]byte("other")}
	if added, err := s.Add(tampered, tampered.Header.Hash()); !errors.Is(err, ErrInvalidBlock) || added.Stashed {
		t.Fatalf("Add of a tampered block: %+v, %v", added, err)
	}
	if _, err := s.AddAt(tampered, time.Second); !errors.Is(err, ErrInvalidBlock) {
		t.Fatalf("AddAt of a tampered block: %v", err)
	}
	if _, err := s.Add(nil, Hash{}); !errors.Is(err, ErrInvalidBlock) {
		t.Fatalf("Add(nil): %v", err)
	}
	if len(s.index) != 1 || s.OrphanCount() != 0 {
		t.Fatalf("store holds %d blocks and %d orphans after only invalid offers", len(s.index), s.OrphanCount())
	}
	wrongHeight := NewBlock(g, nil, time.UnixMilli(3), 3)
	wrongHeight.Header.Height = 5
	if _, err := s.Add(wrongHeight, wrongHeight.Header.Hash()); !errors.Is(err, ErrBadHeight) || errors.Is(err, ErrInvalidBlock) {
		t.Fatalf("a well-formed block at the wrong height: %v", err)
	}
}
