package chain

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// Every connected block keeps its id, height and parent link for ever; bodies
// are kept for the last BodyWindow connected blocks.
func TestStoreKeepsLinksAndRecentBodies(t *testing.T) {
	s, g := newTestStore(t, "window")
	blocks := testChain(g, 3*BodyWindow, 1)
	for _, b := range blocks {
		if _, err := s.Add(b, b.Header.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.index) != len(blocks)+1 {
		t.Fatalf("%d connected blocks, want %d", len(s.index), len(blocks)+1)
	}
	all := append([]*Block{g}, blocks...)
	for i, b := range all {
		h := b.Header.Hash()
		if !s.Has(h) {
			t.Fatalf("block %d: Has is false", i)
		}
		id, ok := s.index[h]
		if !ok || id != int32(i) {
			t.Fatalf("block %d: id = %d, %v, want its connect order", i, id, ok)
		}
		if height, parent := s.tree.Height(id), s.tree.Parent(id); uint64(height) != b.Header.Height || (i > 0 && parent != id-1) {
			t.Fatalf("block %d: height %d under block %d, want height %d under block %d", i, height, parent, b.Header.Height, i-1)
		}
		got, inWindow := s.Get(h), i > len(all)-1-BodyWindow
		if inWindow && got != b {
			t.Fatalf("block %d is inside the window but Get = %v", i, got)
		}
		if !inWindow && got != nil {
			t.Fatalf("block %d is %d blocks deep but Get still returns its body", i, len(all)-1-i)
		}
	}
	if s.Has(Hash{1}) {
		t.Fatal("Has reported an unknown hash")
	}
}

// A tip can be older than the ring: a side branch that never overtakes it
// may connect more than BodyWindow blocks after it. Tip and Get still return
// its body, and it can be extended.
func TestTipKeepsItsBodyPastTheWindow(t *testing.T) {
	s, g := newTestStore(t, "old-tip")
	main := testChain(g, BodyWindow+100, 1)
	side := testChain(g, BodyWindow+50, 1<<20)
	main[len(main)-1] = NewBlock(main[len(main)-2], [][]byte{[]byte("tip body")}, time.UnixMilli(7), 7)
	for _, b := range append(main, side...) {
		if _, err := s.Add(b, b.Header.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	tip := main[len(main)-1]
	if s.Get(main[len(main)-2].Header.Hash()) != nil {
		t.Fatal("the tip's parent should have aged out: the test no longer covers an old tip")
	}
	if got := s.Tip(); got != tip || len(got.Txs) != 1 {
		t.Fatalf("Tip = %+v, want the main branch's last block with its body", got)
	}
	if s.Get(tip.Header.Hash()) != tip {
		t.Fatal("Get of the tip returned no body")
	}
	next, h, err := s.Mine(nil, time.UnixMilli(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := NewBlock(tip, nil, time.UnixMilli(8), 8); next.Header != want.Header || h != want.Header.Hash() {
		t.Fatalf("Store.Mine built %+v, NewBlock on the tip %+v", next.Header, want.Header)
	}
	if s.Height() != uint64(len(main))+1 {
		t.Fatalf("height %d after extending the old tip, want %d", s.Height(), len(main)+1)
	}
}

// Fork choice and reorg depth read the tree's ids, heights and parent links
// only, so they work across ancestry whose bodies are gone, in whatever
// order the branches arrive.
func TestAddAtAcrossPrunedAncestry(t *testing.T) {
	const length = BodyWindow + 10
	g := NewGenesis("pruned-reorg")
	a := testChain(g, length, 1)
	b := testChain(g, length, 1<<20)
	// Block i of a is seen at 2i, of b at 2i+1: at equal heights a wins.
	type offer struct {
		b    *Block
		seen time.Duration
	}
	var aFirst, bFirst, interleaved []offer
	for i := range a {
		oa, ob := offer{a[i], time.Duration(2 * i)}, offer{b[i], time.Duration(2*i + 1)}
		interleaved = append(interleaved, oa, ob)
		aFirst = append(aFirst, oa)
		bFirst = append(bFirst, ob)
	}
	for name, order := range map[string][]offer{
		"a then b":    append(aFirst[:length:length], bFirst...),
		"b then a":    append(bFirst[:length:length], aFirst...),
		"interleaved": interleaved,
	} {
		s, err := NewStore(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range order {
			if _, err := s.AddAt(o.b, o.seen); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if got := s.Tip(); got != a[length-1] {
			t.Fatalf("%s: tip %s at height %d, want branch a's last block", name, got.Header.Hash(), got.Header.Height)
		}
		// One more block on b abandons all of a, most of it long pruned.
		res, err := s.AddAt(NewBlock(b[length-1], nil, time.UnixMilli(9), 9), time.Hour)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.TipChanged || res.ReorgDepth != length {
			t.Fatalf("%s: %+v, want a reorg of depth %d", name, res, length)
		}
	}
}

// The index maps a hash to a 4-byte id and the tree keeps a parent and a
// height in two []int32 slabs, 8 bytes a block, all pointer-free: the
// collector never scans them, and a field added to the tree costs every
// block ever connected.
func TestIndexEntryIsSmallAndPointerFree(t *testing.T) {
	var s Store
	if typ := reflect.TypeOf(s.index).Elem(); typ.Kind() != reflect.Int32 {
		t.Fatalf("the index maps a hash to a %s, want the int32 id", typ)
	}
	typ := reflect.TypeOf(Tree{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type != reflect.TypeOf([]int32(nil)) {
			t.Errorf("Tree.%s is a %s, want a []int32 slab", f.Name, f.Type)
		}
	}
}

// A block that has left the body window costs the store its index entry and
// its tree entry only, about 80 bytes with the map's slack. A block that
// also kept its header (92 bytes encoded) would cost more than the limit.
func TestStoreBytesPerBlock(t *testing.T) {
	const blocks, limit = 70_000, 160
	s, g := newTestStore(t, "bytes")
	prev := g
	add := func(n int) {
		for i := 0; i < n; i++ {
			b := NewBlock(prev, nil, time.UnixMilli(int64(prev.Header.Height)), prev.Header.Height)
			if _, err := s.Add(b, b.Header.Hash()); err != nil {
				t.Fatal(err)
			}
			prev = b
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	add(BodyWindow)
	before := heap()
	add(blocks)
	after := heap()
	perBlock := (float64(after) - float64(before)) / blocks
	t.Logf("%.1f bytes a block over %d blocks past the body window", perBlock, blocks)
	if perBlock > limit {
		t.Fatalf("the store grows %.1f bytes a block, want at most %d", perBlock, limit)
	}
	runtime.KeepAlive(s)
}

// A store's heap is its index plus a window of bodies, not the chain.
func TestStoreHeapStaysBounded(t *testing.T) {
	const adds = 50_000
	s, g := newTestStore(t, "heap")
	txs := make([][]byte, 4)
	for i := range txs {
		txs[i] = make([]byte, 256)
	}
	prev := g
	for i := 0; i < adds; i++ {
		copy(txs[0], fmt.Sprint(i))
		b := NewBlock(prev, txs, time.UnixMilli(int64(i)), uint64(i))
		if _, err := s.Add(b, b.Header.Hash()); err != nil {
			t.Fatal(err)
		}
		prev = b
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.Logf("HeapAlloc %.1f MB after %d 1 KB blocks", float64(m.HeapAlloc)/(1<<20), adds)
	if m.HeapAlloc > 32<<20 {
		t.Fatalf("HeapAlloc %d bytes after %d adds, want under 32 MB", m.HeapAlloc, adds)
	}
	runtime.KeepAlive(s)
}
