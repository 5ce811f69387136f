package chain

import "math"

// Tree is the block tree that longest-chain, first-seen fork choice reads,
// and the one place that rule is written. A block is an int32 id, its
// connect order (genesis is 0), with its parent's id and its height in two
// pointer-free slabs, 8 bytes a block. Tips stay with their viewers, each
// moved by Advance. A Tree is not safe for concurrent use.
type Tree struct {
	parent []int32 // by id; genesis has -1
	height []int32 // by id
}

// NewTree returns a tree holding genesis, with room for capacity blocks.
func NewTree(capacity int) *Tree {
	return &Tree{parent: append(make([]int32, 0, capacity), -1), height: append(make([]int32, 0, capacity), 0)}
}

// Add connects a block under parent, which must be in the tree, and returns
// the block's id. It panics rather than wrap past math.MaxInt32 ids; a live
// store holding that many blocks would take about 170 GB first.
func (t *Tree) Add(parent int32) int32 {
	if len(t.parent) > math.MaxInt32 {
		panic("chain: tree ids past math.MaxInt32")
	}
	id := int32(len(t.parent))
	t.parent = append(t.parent, parent)
	t.height = append(t.height, t.height[parent]+1)
	return id
}

// Parent returns the id of b's parent, -1 for genesis.
func (t *Tree) Parent(b int32) int32 { return t.parent[b] }

// Height returns b's distance from genesis.
func (t *Tree) Height(b int32) int32 { return t.height[b] }

// Len returns how many blocks the tree holds, genesis included.
func (t *Tree) Len() int { return len(t.parent) }

// Advance applies the fork-choice rule to a viewer's tip on connecting b:
// the tip moves to b when b is strictly higher, or at equal height when
// winsTie says b was seen first. It reports whether the tip moved.
func (t *Tree) Advance(tip *int32, b int32, winsTie bool) bool {
	if hb, ht := t.height[b], t.height[*tip]; hb < ht || hb == ht && !winsTie {
		return false
	}
	*tip = b
	return true
}

// ReorgDepth counts the blocks on old's branch that moving a tip from old to
// new abandons: the distance from old back to the two branches' common
// ancestor, 0 when old is an ancestor of new.
func (t *Tree) ReorgDepth(old, new int32) int {
	for t.height[new] > t.height[old] {
		new = t.parent[new]
	}
	depth := 0
	for t.height[old] > t.height[new] {
		old = t.parent[old]
		depth++
	}
	for old != new {
		old, new = t.parent[old], t.parent[new]
		depth++
	}
	return depth
}
