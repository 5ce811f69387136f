package chain

import "testing"

// refTree is FuzzTreeMatchesReference's model of a block tree: parent ids
// only. A block's height and its ancestry are recomputed from scratch on
// every question, sharing no code with Tree.
type refTree []int32

// ancestors returns b and every block above it up to genesis, as a set.
func (r refTree) ancestors(b int32) map[int32]bool {
	set := map[int32]bool{}
	for ; b >= 0; b = r[b] {
		set[b] = true
	}
	return set
}

func (r refTree) height(b int32) int { return len(r.ancestors(b)) - 1 }

// reorgDepth counts old's ancestors (old included) that are not new's.
func (r refTree) reorgDepth(old, new int32) int {
	keep := r.ancestors(new)
	depth := 0
	for a := range r.ancestors(old) {
		if !keep[a] {
			depth++
		}
	}
	return depth
}

// FuzzTreeMatchesReference grows a random tree, one block per input byte,
// and moves one tip with each block. The byte's high bits pick the parent
// counting back from the newest block (0 extends it), so chains run deep
// and fork often; its low bit is the tie verdict. Advance must follow the
// height-then-tie rule, and ReorgDepth must count the abandoned blocks the
// full ancestor sets give, for the tip's move and for a pair the next byte
// picks.
func FuzzTreeMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 2, 3, 2, 6, 1, 9, 4, 0, 0, 13})
	f.Add([]byte{0, 0, 0, 8, 0, 0, 0, 0, 255, 7, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, ref := NewTree(0), refTree{-1}
		tip := int32(0)
		for i, c := range data {
			parent := int32(len(ref)-1) - int32(int(c>>1)%len(ref))
			id := tree.Add(parent)
			if id != int32(len(ref)) {
				t.Fatalf("block %d got id %d", len(ref), id)
			}
			ref = append(ref, parent)
			if tree.Len() != len(ref) || tree.Parent(id) != parent || int(tree.Height(id)) != ref.height(id) {
				t.Fatalf("block %d: len %d, parent %d, height %d; want %d, %d, %d",
					id, tree.Len(), tree.Parent(id), tree.Height(id), len(ref), parent, ref.height(id))
			}

			old, winsTie := tip, c&1 == 1
			hb, ht := ref.height(id), ref.height(old)
			want := hb > ht || hb == ht && winsTie
			if moved := tree.Advance(&tip, id, winsTie); moved != want || (moved && tip != id) || (!moved && tip != old) {
				t.Fatalf("block %d at height %d, tip %d at %d, wins tie %v: moved %v to %d, want moved %v",
					id, hb, old, ht, winsTie, moved, tip, want)
			}
			if got, want := tree.ReorgDepth(old, tip), ref.reorgDepth(old, tip); got != want {
				t.Fatalf("ReorgDepth(%d, %d) = %d, want %d", old, tip, got, want)
			}
			if i+1 < len(data) {
				a := int32(int(data[i+1]) % len(ref))
				if got, want := tree.ReorgDepth(a, id), ref.reorgDepth(a, id); got != want {
					t.Fatalf("ReorgDepth(%d, %d) = %d, want %d", a, id, got, want)
				}
				if got, want := tree.ReorgDepth(id, a), ref.reorgDepth(id, a); got != want {
					t.Fatalf("ReorgDepth(%d, %d) = %d, want %d", id, a, got, want)
				}
			}
		}
	})
}
