package workload

import (
	"slices"

	"github.com/perigee-net/perigee/internal/chain"
)

// views holds every node's longest-chain first-seen view over the run's
// shared block tree. A naive implementation would give each of n nodes
// its own chain.Store holding real blocks — n copies of hashes and headers
// for data that differs only in arrival order. Instead blocks are interned
// once into a chain.Tree, as a live store keeps them, and each node keeps a
// tip, a received bitset, and a small stash of blocks waiting for a parent,
// at a few bits per (node, block) instead of a store per node. Two tests
// hold the views to real per-node stores on random block DAGs with children
// beating parents: FuzzViewsMatchLiveStore agrees on every tip with
// Store.Add, which stashes and unstashes orphans as a live node does, and
// TestViewsMatchChainStores with Store.AddAt on distinct arrival times.
type views struct {
	tree *chain.Tree // the run's blocks, by id (0 = genesis)

	// Per-node state.
	tip   []int32    // id of the node's current best block
	have  [][]uint64 // received-block bitsets
	stash [][]int32  // received blocks whose parent the node lacks

	// Aggregate reorg telemetry across all nodes.
	reorgs   int
	maxDepth int
}

func newViews(n int) *views {
	v := &views{
		tree:  chain.NewTree(64),
		tip:   make([]int32, n),
		have:  make([][]uint64, n),
		stash: make([][]int32, n),
	}
	for i := range v.have {
		v.have[i] = make([]uint64, 1)
		v.have[i][0] = 1 // everyone starts holding genesis
	}
	return v
}

func (v *views) has(node int, b int32) bool {
	w := int(b) >> 6
	return w < len(v.have[node]) && v.have[node][w]&(1<<(uint(b)&63)) != 0
}

func (v *views) mark(node int, b int32) {
	w := int(b) >> 6
	for len(v.have[node]) <= w {
		v.have[node] = append(v.have[node], 0)
	}
	v.have[node][w] |= 1 << (uint(b) & 63)
}

// deliver hands block b to node at its arrival: stash it when the parent
// has not arrived, otherwise connect it and cascade through any stashed
// descendants it unblocks. Deliveries are idempotent.
func (v *views) deliver(node int, b int32) {
	if v.has(node, b) {
		return
	}
	if !v.has(node, v.tree.Parent(b)) {
		for _, c := range v.stash[node] {
			if c == b {
				return
			}
		}
		v.stash[node] = append(v.stash[node], b)
		return
	}
	v.connect(node, b)
}

// connect links b, whose parent node holds, then the stashed blocks it
// unblocks as chain.Store.Add does: depth-first, each block's waiting
// children in arrival order. The stash stays tiny (only reorg-window races
// land there), so each step rescans it.
func (v *views) connect(node int, b int32) {
	v.mark(node, b)
	v.advance(node, b)
	for {
		st := v.stash[node]
		i := slices.IndexFunc(st, func(c int32) bool { return v.tree.Parent(c) == b })
		if i < 0 {
			return
		}
		c := st[i]
		v.stash[node] = slices.Delete(st, i, i+1)
		v.connect(node, c)
	}
}

// advance moves node's tip to b by the tree's rule, on a strictly higher
// block only: an equal-height rival connected later never displaces it. A
// move that abandons blocks of the old branch is a reorg of that depth.
func (v *views) advance(node int, b int32) {
	old := v.tip[node]
	if !v.tree.Advance(&v.tip[node], b, false) {
		return
	}
	if depth := v.tree.ReorgDepth(old, b); depth > 0 {
		v.reorgs++
		v.maxDepth = max(v.maxDepth, depth)
	}
}
