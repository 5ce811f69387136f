package workload

import (
	"math/rand"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
)

// viewsDelivery is one block's arrival at one node.
type viewsDelivery struct {
	at   time.Duration
	node int
	id   int32
}

// randomDeliveries grows a random block DAG into v: each block extends a
// uniformly random existing block (lots of forks) and is delivered to every
// node in a random order at increasing times, then the schedule is shuffled
// within coarse windows so children often beat their parents. It returns
// the real block for every id (genesis at 0) and the schedule.
func randomDeliveries(r *rand.Rand, v *views, genesis *chain.Block, nodes, blocks int) ([]*chain.Block, []viewsDelivery) {
	real := []*chain.Block{genesis}
	var schedule []viewsDelivery
	now := time.Duration(0)
	for b := 1; b <= blocks; b++ {
		parent := int32(r.Intn(b))
		id := v.tree.Add(parent)
		real = append(real, chain.NewBlock(real[parent], nil, time.UnixMilli(int64(b)), uint64(b)))
		for _, node := range r.Perm(nodes) {
			now += time.Millisecond
			schedule = append(schedule, viewsDelivery{at: now, node: node, id: id})
		}
	}
	r.Shuffle(len(schedule), func(i, j int) {
		// Shuffle only within coarse windows to keep times increasing per
		// node while still reordering parent/child arrivals.
		if abs(i-j) < 3*nodes {
			schedule[i].at, schedule[j].at = schedule[j].at, schedule[i].at
			schedule[i], schedule[j] = schedule[j], schedule[i]
		}
	})
	return real, schedule
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// viewsSeed is one input of FuzzViewsMatchLiveStore.
type viewsSeed struct {
	seed          int64
	nodes, blocks uint8
}

// fuzzViewsSeeds are the seed inputs of FuzzViewsMatchLiveStore, committed
// under testdata/fuzz by TestGenerateSeedCorpus: three schedules the size
// of TestViewsMatchChainStores', and a 16-node one on which rescanning the
// stash in insertion order, instead of unstashing depth-first, picks a
// different tip than the live node.
func fuzzViewsSeeds() map[string]viewsSeed {
	return map[string]viewsSeed{
		"seed-1":             {1, 8, 120},
		"seed-2":             {2, 8, 120},
		"seed-3":             {3, 8, 120},
		"seed-cascade-order": {62, 64, 23},
	}
}

// FuzzViewsMatchLiveStore holds the views to the path a live node runs:
// every node's deliveries of a random block DAG go both to the views and to
// a chain.Store through Add, which stashes a block that beats its parent
// and unstashes it when the parent lands. Once all have landed, every
// node's tip must agree. nodes is taken mod 16, with 0 meaning 16.
func FuzzViewsMatchLiveStore(f *testing.F) {
	for _, in := range fuzzViewsSeeds() {
		f.Add(in.seed, in.nodes, in.blocks)
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes, blocks uint8) {
		n := int(nodes) % 16
		if n == 0 {
			n = 16
		}
		genesis := chain.NewGenesis("views-live")
		v := newViews(n)
		live := make([]*chain.Store, n)
		for i := range live {
			s, err := chain.NewStore(genesis)
			if err != nil {
				t.Fatal(err)
			}
			live[i] = s
		}
		real, schedule := randomDeliveries(rand.New(rand.NewSource(seed)), v, genesis, n, int(blocks))
		for _, d := range schedule {
			v.deliver(d.node, d.id)
			b := real[d.id]
			if _, err := live[d.node].Add(b, b.Header.Hash()); err != nil {
				t.Fatalf("store rejected delivery: %v", err)
			}
		}
		for node, s := range live {
			if got, want := real[v.tip[node]].Header.Hash(), s.Tip().Header.Hash(); got != want {
				t.Fatalf("node %d: views tip %s, live store tip %s", node, got, want)
			}
		}
	})
}
