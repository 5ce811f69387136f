package chain

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// Headers are kept for ever, bodies for the last BodyWindow connected blocks.
func TestStoreKeepsHeadersAndRecentBodies(t *testing.T) {
	s, g := newTestStore(t, "window")
	blocks := testChain(g, 3*BodyWindow, 1)
	for _, b := range blocks {
		if _, err := s.Add(b, b.Header.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != len(blocks)+1 {
		t.Fatalf("Len = %d, want %d", s.Len(), len(blocks)+1)
	}
	all := append([]*Block{g}, blocks...)
	for i, b := range all {
		h := b.Header.Hash()
		if !s.Has(h) {
			t.Fatalf("block %d: Has is false", i)
		}
		if hdr, ok := s.Header(h); !ok || hdr != b.Header {
			t.Fatalf("block %d: Header = %+v, %v, want %+v", i, hdr, ok, b.Header)
		}
		got, inWindow := s.Get(h), i > len(all)-1-BodyWindow
		if inWindow && got != b {
			t.Fatalf("block %d is inside the window but Get = %v", i, got)
		}
		if !inWindow && got != nil {
			t.Fatalf("block %d is %d blocks deep but Get still returns its body", i, len(all)-1-i)
		}
	}
	if _, ok := s.Header(Hash{1}); ok {
		t.Fatal("Header of an unknown hash reported ok")
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
	next := s.NewBlock(nil, time.UnixMilli(8), 8)
	if want := NewBlock(tip, nil, time.UnixMilli(8), 8); next.Header != want.Header {
		t.Fatalf("Store.NewBlock built %+v, NewBlock on the tip %+v", next.Header, want.Header)
	}
	if _, err := s.Add(next, next.Header.Hash()); err != nil {
		t.Fatal(err)
	}
	if s.Height() != uint64(len(main))+1 {
		t.Fatalf("height %d after extending the old tip, want %d", s.Height(), len(main)+1)
	}
}

// Fork choice and reorg depth read headers only, so they work across
// ancestry whose bodies are gone, in whatever order the branches arrive.
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

// The index value must stay inline in the map and invisible to the
// collector: a field that makes it larger than 128 bytes boxes every entry
// (one allocation per block), and a pointer makes the whole index scannable.
func TestIndexEntryIsSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(indexEntry{}); size > 128 {
		t.Fatalf("indexEntry is %d bytes; over 128 the map stores a pointer to it", size)
	}
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	check("indexEntry", reflect.TypeOf(indexEntry{}))
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
