package topology

import (
	"errors"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/perigee-net/perigee/internal/rng"
)

func mustTable(t *testing.T, n, maxIn int) *Table {
	t.Helper()
	tbl, err := NewTable(n, maxIn)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// neighbors returns the union of u's outgoing and incoming neighbors in
// ascending order, the set of peers u exchanges blocks with (Γ_v in the
// paper), pins excluded.
func neighbors(t *Table, u int) []int {
	return appendMerge(make([]int, 0, len(t.out[u])+len(t.in[u])), t.out[u], t.in[u], nil)
}

// totalEdges returns the number of directed edges in the table.
func totalEdges(t *Table) int {
	total := 0
	for _, row := range t.out {
		total += len(row)
	}
	return total
}

func TestNewTableErrors(t *testing.T) {
	if _, err := NewTable(0, 5); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := NewTable(5, 0); err == nil {
		t.Fatal("expected error for maxIn=0")
	}
}

func TestConnectDisconnect(t *testing.T) {
	tbl := mustTable(t, 4, 2)
	if err := tbl.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if !tbl.HasOut(0, 1) || tbl.HasOut(1, 0) {
		t.Fatal("edge direction wrong")
	}
	if tbl.OutDegree(0) != 1 || len(tbl.in[1]) != 1 {
		t.Fatal("degrees wrong")
	}
	if err := tbl.Disconnect(0, 1); err != nil {
		t.Fatal(err)
	}
	if tbl.HasOut(0, 1) || tbl.OutDegree(0) != 0 || len(tbl.in[1]) != 0 {
		t.Fatal("disconnect did not clean up")
	}
}

func TestConnectErrors(t *testing.T) {
	tbl := mustTable(t, 4, 1)
	if err := tbl.Connect(0, 0); !errors.Is(err, ErrSelfConnection) {
		t.Fatalf("self connect: %v", err)
	}
	if err := tbl.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Connect(0, 1); !errors.Is(err, ErrDuplicateConnection) {
		t.Fatalf("duplicate connect: %v", err)
	}
	// Node 1 now has its single incoming slot used.
	if err := tbl.Connect(2, 1); !errors.Is(err, ErrIncomingFull) {
		t.Fatalf("incoming full: %v", err)
	}
	if err := tbl.Connect(-1, 2); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("node range: %v", err)
	}
	if err := tbl.Connect(0, 9); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("node range: %v", err)
	}
	if err := tbl.Disconnect(2, 3); !errors.Is(err, ErrNoConnection) {
		t.Fatalf("no connection: %v", err)
	}
}

func TestIncomingFreedByDisconnect(t *testing.T) {
	tbl := mustTable(t, 3, 1)
	if err := tbl.Connect(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Connect(1, 2); !errors.Is(err, ErrIncomingFull) {
		t.Fatal("expected full")
	}
	if err := tbl.Disconnect(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Connect(1, 2); err != nil {
		t.Fatalf("slot not freed: %v", err)
	}
	if tbl.InFree(2) != 0 {
		t.Fatalf("InFree = %d, want 0", tbl.InFree(2))
	}
}

func TestNeighborsUnion(t *testing.T) {
	tbl := mustTable(t, 5, 5)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {3, 0}, {4, 0}} {
		if err := tbl.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	got := neighbors(tbl, 0)
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", got, want)
		}
	}
	outs := tbl.OutNeighbors(0)
	if len(outs) != 2 || outs[0] != 1 || outs[1] != 2 {
		t.Fatalf("out neighbors = %v", outs)
	}
	ins := tbl.InNeighbors(0)
	if len(ins) != 2 || ins[0] != 3 || ins[1] != 4 {
		t.Fatalf("in neighbors = %v", ins)
	}
}

func TestNeighborsBothDirections(t *testing.T) {
	// A pair connected in both directions appears once in the union.
	tbl := mustTable(t, 2, 2)
	if err := tbl.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Connect(1, 0); err != nil {
		t.Fatal(err)
	}
	if got := neighbors(tbl, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("neighbors = %v, want [1]", got)
	}
}

func TestUndirectedSymmetric(t *testing.T) {
	tbl := mustTable(t, 6, 4)
	for _, e := range [][2]int{{0, 1}, {2, 1}, {3, 4}, {5, 0}} {
		if err := tbl.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	adj := tbl.Undirected()
	for u := range adj {
		for _, v := range adj[u] {
			found := false
			for _, w := range adj[v] {
				if w == u {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d in adj[%d] but not vice versa", v, u)
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	tbl := mustTable(t, 3, 2)
	if err := tbl.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	c := tbl.Clone()
	if err := c.Connect(1, 2); err != nil {
		t.Fatal(err)
	}
	if tbl.HasOut(1, 2) {
		t.Fatal("clone aliases original")
	}
	if !c.HasOut(0, 1) {
		t.Fatal("clone lost edge")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTotalEdges(t *testing.T) {
	tbl := mustTable(t, 4, 3)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	for _, e := range edges {
		if err := tbl.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if got := totalEdges(tbl); got != 4 {
		t.Fatalf("totalEdges = %d, want 4", got)
	}
}

// Property: after any sequence of random connect/disconnect operations the
// table's invariants hold.
func TestTableInvariantsUnderRandomOps(t *testing.T) {
	r := rng.New(77)
	check := func(ops []uint32) bool {
		const n, maxIn = 12, 3
		tbl, err := NewTable(n, maxIn)
		if err != nil {
			return false
		}
		for _, op := range ops {
			u := int(op>>8) % n
			v := int(op>>16) % n
			if op&1 == 0 {
				_ = tbl.Connect(u, v) // errors are legal outcomes
			} else {
				_ = tbl.Disconnect(u, v)
			}
		}
		_ = r
		return tbl.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionTracksMutations(t *testing.T) {
	tbl, err := NewTable(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	v0 := tbl.Version()
	if err := tbl.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() == v0 {
		t.Fatal("Version unchanged after Connect")
	}
	v1 := tbl.Version()
	// Failed mutations must not move the version.
	if err := tbl.Connect(0, 1); err == nil {
		t.Fatal("duplicate connect succeeded")
	}
	if err := tbl.Disconnect(1, 0); err == nil {
		t.Fatal("disconnect of missing edge succeeded")
	}
	if tbl.Version() != v1 {
		t.Fatal("Version moved on failed mutation")
	}
	if err := tbl.Disconnect(0, 1); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() == v1 {
		t.Fatal("Version unchanged after Disconnect")
	}
}

func TestUndirectedIntoReusesBuffers(t *testing.T) {
	tbl, err := NewTable(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 0}, {4, 2}} {
		if err := tbl.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	want := tbl.Undirected()
	buf := tbl.UndirectedInto(nil)
	// Mutate, rebuild into the same buffer, and compare against a fresh
	// snapshot.
	if err := tbl.Connect(4, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Disconnect(1, 2); err != nil {
		t.Fatal(err)
	}
	got := tbl.UndirectedInto(buf)
	fresh := tbl.Undirected()
	if len(got) != len(fresh) {
		t.Fatalf("row count %d, want %d", len(got), len(fresh))
	}
	for v := range fresh {
		if len(got[v]) != len(fresh[v]) {
			t.Fatalf("row %d: %v, want %v", v, got[v], fresh[v])
		}
		for i := range fresh[v] {
			if got[v][i] != fresh[v][i] {
				t.Fatalf("row %d: %v, want %v", v, got[v], fresh[v])
			}
		}
	}
	// The pre-mutation snapshot must be untouched by the rebuild only in
	// the sense that it was a distinct snapshot then; sanity-check the
	// original edge (1, 2) was present in it.
	found := false
	for _, u := range want[1] {
		if u == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("pre-mutation snapshot missing edge (1, 2)")
	}
}

func TestAppendOutNeighbors(t *testing.T) {
	tbl, err := NewTable(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{5, 1, 3} {
		if err := tbl.Connect(2, v); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]int, 0, 8)
	got := tbl.AppendOutNeighbors(buf, 2)
	want := tbl.OutNeighbors(2)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Reuse must not grow when capacity suffices.
	again := tbl.AppendOutNeighbors(got[:0], 2)
	if &again[0] != &got[0] {
		t.Fatal("AppendOutNeighbors reallocated despite sufficient capacity")
	}
}

// refTable is the map-of-sets table the sorted rows replaced, kept as the
// reference model of TestTableMatchesMapModel and FuzzTablePinMatchesReference.
type refTable struct {
	maxIn         int
	out, in, pins []map[int]struct{}
	version       uint64
}

func newRefTable(n, maxIn int) *refTable {
	r := &refTable{maxIn: maxIn, out: make([]map[int]struct{}, n), in: make([]map[int]struct{}, n), pins: make([]map[int]struct{}, n)}
	for i := 0; i < n; i++ {
		r.out[i], r.in[i], r.pins[i] = map[int]struct{}{}, map[int]struct{}{}, map[int]struct{}{}
	}
	return r
}

func (r *refTable) pin(u, v int) error {
	n := len(r.out)
	switch {
	case u < 0 || u >= n || v < 0 || v >= n:
		return ErrNodeRange
	case u == v:
		return ErrSelfConnection
	}
	if _, ok := r.pins[u][v]; !ok {
		r.pins[u][v], r.pins[v][u] = struct{}{}, struct{}{}
		r.version++
	}
	return nil
}

func (r *refTable) connect(u, v int) error {
	n := len(r.out)
	switch {
	case u < 0 || u >= n || v < 0 || v >= n:
		return ErrNodeRange
	case u == v:
		return ErrSelfConnection
	}
	if _, ok := r.out[u][v]; ok {
		return ErrDuplicateConnection
	}
	if len(r.in[v]) >= r.maxIn {
		return ErrIncomingFull
	}
	r.out[u][v], r.in[v][u] = struct{}{}, struct{}{}
	r.version++
	return nil
}

func (r *refTable) disconnect(u, v int) error {
	n := len(r.out)
	if u < 0 || u >= n || v < 0 || v >= n {
		return ErrNodeRange
	}
	if _, ok := r.out[u][v]; !ok {
		return ErrNoConnection
	}
	delete(r.out[u], v)
	delete(r.in[v], u)
	r.version++
	return nil
}

func refSorted(sets ...map[int]struct{}) []int {
	union := map[int]struct{}{}
	for _, s := range sets {
		for k := range s {
			union[k] = struct{}{}
		}
	}
	keys := make([]int, 0, len(union))
	for k := range union {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// TestTableMatchesMapModel drives 10⁵ random operations through a Table
// and the map model side by side: every call must fail or succeed alike
// (errors.Is on the sentinel), and after each batch of 500 every read
// accessor must agree for every node. Half way the table is swapped for its
// Clone, which must carry on identically while the original stays as it was.
func TestTableMatchesMapModel(t *testing.T) {
	const n, maxIn, ops, batch = 40, 5, 100_000, 500
	r := rng.New(2024)
	tbl, ref := mustTable(t, n, maxIn), newRefTable(n, maxIn)
	var frozen *Table
	var frozenAdj, adj [][]int
	var rebase uint64
	for op := 0; op < ops; op++ {
		u, v := r.IntN(n+2)-1, r.IntN(n+2)-1 // −1 and n are out of range
		inRange := u >= 0 && u < n && v >= 0 && v < n
		var got, want error
		switch k := r.IntN(5); {
		case k < 2:
			got, want = tbl.Connect(u, v), ref.connect(u, v)
		case k < 4:
			got, want = tbl.Disconnect(u, v), ref.disconnect(u, v)
		case inRange:
			if _, has := ref.out[u][v]; tbl.HasOut(u, v) != has {
				t.Fatalf("op %d: HasOut(%d, %d) = %v, model says %v", op, u, v, !has, has)
			}
		}
		if !errors.Is(got, want) || (want == nil) != (got == nil) {
			t.Fatalf("op %d on (%d, %d): table error %v, model error %v", op, u, v, got, want)
		}
		if op == ops/2 {
			frozen, frozenAdj = tbl, tbl.Undirected()
			tbl, rebase = tbl.Clone(), ref.version // a Clone counts from 0
		}
		if (op+1)%batch != 0 {
			continue
		}
		edges := 0
		adj = tbl.UndirectedInto(adj)
		for u := 0; u < n; u++ {
			edges += len(ref.out[u])
			for name, pair := range map[string][2][]int{
				"OutNeighbors":   {tbl.OutNeighbors(u), refSorted(ref.out[u])},
				"InNeighbors":    {tbl.InNeighbors(u), refSorted(ref.in[u])},
				"Neighbors":      {neighbors(tbl, u), refSorted(ref.out[u], ref.in[u])},
				"UndirectedInto": {adj[u], refSorted(ref.out[u], ref.in[u])},
			} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Fatalf("op %d: %s(%d) = %v, model %v", op, name, u, pair[0], pair[1])
				}
			}
			if tbl.OutDegree(u) != len(ref.out[u]) || len(tbl.in[u]) != len(ref.in[u]) || tbl.InFree(u) != maxIn-len(ref.in[u]) {
				t.Fatalf("op %d: node %d degrees %d/%d free %d, model %d/%d", op, u, tbl.OutDegree(u), len(tbl.in[u]), tbl.InFree(u), len(ref.out[u]), len(ref.in[u]))
			}
		}
		if totalEdges(tbl) != edges || tbl.Version() != ref.version-rebase {
			t.Fatalf("op %d: totalEdges = %d, Version = %d; model %d, %d", op, totalEdges(tbl), tbl.Version(), edges, ref.version-rebase)
		}
		if err := tbl.Validate(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if !reflect.DeepEqual(frozen.Undirected(), frozenAdj) {
		t.Fatal("mutating a Clone changed the table it was cloned from")
	}
	if err := frozen.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAccessorsDoNotAlias scribbles over every slice the table hands out
// and reads the table again.
func TestAccessorsDoNotAlias(t *testing.T) {
	tbl, err := Random(30, 4, 8, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	want := tbl.Clone()
	adj := tbl.Undirected()
	for u := 0; u < tbl.N(); u++ {
		for _, s := range [][]int{tbl.OutNeighbors(u), tbl.InNeighbors(u), neighbors(tbl, u), tbl.AppendOutNeighbors(nil, u), adj[u]} {
			for i := range s {
				s[i] = -7
			}
			_ = append(s, -7, -7, -7)
		}
	}
	equalTables(t, tbl, want)
	if !reflect.DeepEqual(tbl.Undirected(), want.Undirected()) {
		t.Fatal("writing to returned slices changed the table's adjacency")
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTablePin walks the pin contract case by case: a pin fails exactly on
// a self pair or an out-of-range node, joins the undirected graph at both
// ends without taking a slot or passing the incoming cap, is a no-op when
// repeated in either direction, coexists with a connection of the same
// pair and survives its Disconnect; Clone carries the pins and Validate
// checks them.
func TestTablePin(t *testing.T) {
	tbl := mustTable(t, 4, 1)
	if err := tbl.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		u, v int
		want error
	}{{2, 2, ErrSelfConnection}, {-1, 0, ErrNodeRange}, {0, 4, ErrNodeRange}} {
		if err := tbl.Pin(bad.u, bad.v); !errors.Is(err, bad.want) {
			t.Fatalf("Pin(%d, %d) = %v, want %v", bad.u, bad.v, err, bad.want)
		}
	}
	// 0-1 is already connected; node 1's one incoming slot is taken.
	for _, p := range [][2]int{{0, 1}, {1, 2}, {2, 1}, {1, 2}} {
		if err := tbl.Pin(p[0], p[1]); err != nil {
			t.Fatalf("Pin(%d, %d): %v", p[0], p[1], err)
		}
	}
	want := [][]int{{1}, {0, 2}, {1}, nil}
	if got := tbl.Undirected(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Undirected = %v, want %v", got, want)
	}
	if tbl.Version() != 3 {
		t.Fatalf("Version = %d after one connect and two new pins, want 3", tbl.Version())
	}
	if totalEdges(tbl) != 1 || tbl.InFree(1) != 0 || len(tbl.in[2]) != 0 || len(neighbors(tbl, 2)) != 0 {
		t.Fatal("a pin took a connection slot")
	}
	clone := tbl.Clone()
	if err := tbl.Disconnect(0, 1); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][][]int{"table": tbl.Undirected(), "clone": clone.Undirected()} {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s after Disconnect(0, 1): Undirected = %v, want %v", name, got, want)
		}
	}
	for _, tb := range []*Table{tbl, clone} {
		if err := tb.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	clone.pins[2] = nil // 1 still lists 2
	if clone.Validate() == nil {
		t.Fatal("Validate accepted a one-sided pin")
	}
	if err := tbl.Validate(); err != nil {
		t.Fatalf("breaking a Clone's pins broke the table: %v", err)
	}
}

// mergeAdjacencyByMaps is the set-per-node union of an adjacency and extra
// undirected edges, self and out-of-range pairs skipped: the reference for
// a table's Pin + Undirected.
func mergeAdjacencyByMaps(adj [][]int, extra [][2]int) [][]int {
	n := len(adj)
	sets := make([]map[int]struct{}, n)
	for u := range sets {
		sets[u] = map[int]struct{}{}
		for _, v := range adj[u] {
			sets[u][v] = struct{}{}
		}
	}
	for _, e := range extra {
		a, b := e[0], e[1]
		if a == b || a < 0 || b < 0 || a >= n || b >= n {
			continue
		}
		sets[a][b], sets[b][a] = struct{}{}, struct{}{}
	}
	out := make([][]int, n)
	for u := range out {
		out[u] = refSorted(sets[u])
	}
	return out
}

// TestTablePinMatchesMapReference pins random pairs (some self, repeated,
// already connected or out of range) into random tables: Pin must fail
// exactly on the self and out-of-range pairs, and Undirected, a reused
// UndirectedInto and a Clone's Undirected must all equal the map union.
func TestTablePinMatchesMapReference(t *testing.T) {
	r := rng.New(31)
	var reused [][]int
	for trial := 0; trial < 50; trial++ {
		n := 10 + r.IntN(60)
		tbl, err := Random(n, 3, 6, r)
		if err != nil {
			t.Fatal(err)
		}
		adj := tbl.Undirected()
		extra := make([][2]int, r.IntN(3*n))
		for i := range extra {
			a, b := r.IntN(n+4)-2, r.IntN(n+4)-2
			extra[i] = [2]int{a, b}
			bad := a == b || a < 0 || b < 0 || a >= n || b >= n
			if err := tbl.Pin(a, b); (err != nil) != bad {
				t.Fatalf("trial %d: Pin(%d, %d) = %v", trial, a, b, err)
			}
		}
		want := mergeAdjacencyByMaps(adj, extra)
		reused = tbl.UndirectedInto(reused)
		for name, got := range map[string][][]int{"Undirected": tbl.Undirected(), "UndirectedInto": reused, "Clone": tbl.Clone().Undirected()} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s %v, reference %v", trial, name, got, want)
			}
		}
		if err := tbl.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzTablePinMatchesReference interleaves Connect, Disconnect and Pin on a
// small table and the map model: every call must fail or succeed alike, a
// pinned pair must stay in the undirected graph through a Disconnect of the
// same pair, and after every operation the table must match the model (see
// matchModel).
func FuzzTablePinMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2, 1, 2, 1, 1, 2})
	f.Add([]byte{2, 0, 0, 2, 9, 1, 0, 3, 4, 2, 3, 4, 1, 3, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n, maxIn = 6, 2
		tbl, ref := mustTable(t, n, maxIn), newRefTable(n, maxIn)
		var adj [][]int
		for i := 0; i+2 < len(ops); i += 3 {
			// −1 and n are out of range.
			u, v := int(ops[i+1])%(n+2)-1, int(ops[i+2])%(n+2)-1
			var got, want error
			switch ops[i] % 3 {
			case 0:
				got, want = tbl.Connect(u, v), ref.connect(u, v)
			case 1:
				got, want = tbl.Disconnect(u, v), ref.disconnect(u, v)
			default:
				got, want = tbl.Pin(u, v), ref.pin(u, v)
			}
			if !errors.Is(got, want) || (want == nil) != (got == nil) {
				t.Fatalf("op %d on (%d, %d): table error %v, model error %v", i/3, u, v, got, want)
			}
			matchModel(t, i/3, tbl, ref, 0, &adj)
			if ops[i]%3 == 1 && got == nil {
				if _, pinned := ref.pins[u][v]; pinned && !slices.Contains(adj[u], v) {
					t.Fatalf("op %d: Disconnect(%d, %d) dropped the pin", i/3, u, v)
				}
			}
		}
	})
}

// FuzzTableMatchesReference interleaves Connect, Disconnect, Pin and Clone
// on a six-node table whose incoming cap, 1 to 4, is read from the first
// byte, so out-rows outgrow their windows and shrink back, and the map
// model: every call must fail or succeed alike, and after every operation
// the table must match the model (see matchModel). A Clone replaces the
// table and carries on; every table it replaced must end as it was left.
func FuzzTableMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 1, 3, 0, 1, 4, 3, 0, 0, 0, 1, 5, 1, 1, 2, 2, 1, 3})
	f.Add([]byte{3, 0, 2, 1, 0, 2, 3, 0, 2, 4, 0, 2, 5, 0, 2, 6, 3, 0, 0, 1, 2, 4, 0, 3, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		const n = 6
		maxIn := 1 + int(ops[0])%4
		tbl, ref := mustTable(t, n, maxIn), newRefTable(n, maxIn)
		var rebase uint64
		var adj [][]int
		var left []*Table
		var leftAdj [][][]int
		for i := 1; i+2 < len(ops); i += 3 {
			// −1 and n are out of range.
			u, v := int(ops[i+1])%(n+2)-1, int(ops[i+2])%(n+2)-1
			var got, want error
			switch ops[i] % 4 {
			case 0:
				got, want = tbl.Connect(u, v), ref.connect(u, v)
			case 1:
				got, want = tbl.Disconnect(u, v), ref.disconnect(u, v)
			case 2:
				got, want = tbl.Pin(u, v), ref.pin(u, v)
			default:
				left, leftAdj = append(left, tbl), append(leftAdj, tbl.Undirected())
				tbl, rebase = tbl.Clone(), ref.version // a Clone counts from 0
			}
			if !errors.Is(got, want) || (want == nil) != (got == nil) {
				t.Fatalf("op %d on (%d, %d): table error %v, model error %v", i/3, u, v, got, want)
			}
			matchModel(t, i/3, tbl, ref, rebase, &adj)
		}
		for i, old := range left {
			if !reflect.DeepEqual(old.Undirected(), leftAdj[i]) {
				t.Fatalf("clone %d: mutating a Clone changed the table it was cloned from", i)
			}
			if err := old.Validate(); err != nil {
				t.Fatalf("clone %d: %v", i, err)
			}
		}
	})
}

// matchModel fails the test unless every read accessor of tbl agrees with
// the model for every node and pair: the undirected graph (pins included),
// the pin-blind neighbours, the out- and in-rows, the degrees and free
// slots, HasOut, and the version (counted from rebase, the model's version
// when tbl was cloned). Validate must pass too. The undirected graph is
// rebuilt into *adj, the caller's snapshot of the previous operation.
func matchModel(t *testing.T, op int, tbl *Table, ref *refTable, rebase uint64, adj *[][]int) {
	t.Helper()
	n := tbl.N()
	*adj = tbl.UndirectedInto(*adj)
	for u := 0; u < n; u++ {
		for name, pair := range map[string][2][]int{
			"UndirectedInto": {(*adj)[u], refSorted(ref.out[u], ref.in[u], ref.pins[u])},
			"Neighbors":      {neighbors(tbl, u), refSorted(ref.out[u], ref.in[u])},
			"OutNeighbors":   {tbl.OutNeighbors(u), refSorted(ref.out[u])},
			"InNeighbors":    {tbl.InNeighbors(u), refSorted(ref.in[u])},
		} {
			if !slices.Equal(pair[0], pair[1]) {
				t.Fatalf("op %d: %s(%d) = %v, model %v", op, name, u, pair[0], pair[1])
			}
		}
		if tbl.OutDegree(u) != len(ref.out[u]) || tbl.InFree(u) != ref.maxIn-len(ref.in[u]) {
			t.Fatalf("op %d: node %d out-degree %d free %d, model %d/%d", op, u, tbl.OutDegree(u), tbl.InFree(u), len(ref.out[u]), len(ref.in[u]))
		}
		for v := -1; v <= n; v++ {
			if _, has := ref.out[u][v]; tbl.HasOut(u, v) != has {
				t.Fatalf("op %d: HasOut(%d, %d) = %v, model says %v", op, u, v, !has, has)
			}
		}
	}
	if tbl.Version() != ref.version-rebase {
		t.Fatalf("op %d: Version = %d, model %d", op, tbl.Version(), ref.version-rebase)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
}

// TestRewireDoesNotAllocate empties and refills the out-row of node after
// node of a fresh Random table, and of its Clone, dialling until the row
// fills its window or every peer has been offered, so out-rows and in-rows
// grow to the incoming cap. Every other node's cycle is counted on its own
// (AllocsPerRun runs the one before it as its warm-up), and nothing warms
// the table up beforehand: a row that grew by reallocating would show on the
// node that first grew it.
func TestRewireDoesNotAllocate(t *testing.T) {
	const n, dout, maxIn = 2000, 8, 20
	fresh, err := Random(n, dout, maxIn, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tbl  *Table
	}{{"Clone", fresh.Clone()}, {"Random", fresh}} {
		tbl, r, cand, buf := tc.tbl, rng.New(10), identity(n), make([]int, 0, n)
		u := 0
		cycle := func() {
			for _, v := range tbl.AppendOutNeighbors(buf[:0], u) {
				if err := tbl.Disconnect(u, v); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n && tbl.OutDegree(u) < maxIn; i++ {
				if v := draw(cand, i, r); v != u && tbl.InFree(v) > 0 {
					if err := tbl.Connect(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			u++
		}
		for u+1 < n {
			if allocs := testing.AllocsPerRun(1, cycle); allocs != 0 {
				t.Fatalf("%s: refilling node %d allocates %v objects", tc.name, u-1, allocs)
			}
		}
		full := 0
		for v := 0; v < n; v++ {
			if tbl.InFree(v) == 0 {
				full++
			}
		}
		if full < n/2 {
			t.Fatalf("%s: only %d of %d in-rows reached the cap", tc.name, full, n)
		}
		if err := tbl.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOutRowOutgrowsItsWindow gives node 3 of a table whose incoming cap is
// 2 five outgoing connections, more than its window holds, after the
// windows on either side of it have been filled: the row must move out of
// the slab, and every row the dials did not write to must stay in its
// window with the contents it had, the table (and its Clone) valid.
func TestOutRowOutgrowsItsWindow(t *testing.T) {
	const n, maxIn, u = 10, 2, 3
	tbl := mustTable(t, n, maxIn)
	for v := 0; v < n; v++ {
		if cap(tbl.out[v]) != maxIn || cap(tbl.in[v]) != maxIn {
			t.Fatalf("node %d: windows of %d and %d, want %d", v, cap(tbl.out[v]), cap(tbl.in[v]), maxIn)
		}
	}
	for _, e := range [][2]int{{2, 0}, {2, 7}, {4, 0}, {4, 7}, {5, 2}, {6, 2}, {5, 4}, {6, 4}, {u, 1}} {
		if err := tbl.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// window is the array under a row, up to its capacity.
	window := func(row []int32) []int32 { return row[:cap(row)] }
	rows := func(v int) [][]int32 { return [][]int32{tbl.out[v], tbl.in[v]} }
	var was [][]int32
	var base []*int32
	for v := 0; v < n; v++ {
		for _, row := range rows(v) {
			was, base = append(was, slices.Clone(window(row))), append(base, &window(row)[0])
		}
	}
	for _, v := range []int{5, 6, 8, 9} {
		if err := tbl.Connect(u, v); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := tbl.OutNeighbors(u), []int{1, 5, 6, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("OutNeighbors(%d) = %v, want %v", u, got, want)
	}
	if &window(tbl.out[u])[0] == base[2*u] {
		t.Fatalf("node %d's out-row of 5 still lives in its window of %d", u, maxIn)
	}
	dialled := map[int]bool{5: true, 6: true, 8: true, 9: true}
	for v := 0; v < n; v++ {
		for d, row := range rows(v) {
			i, got := 2*v+d, window(row)
			switch {
			case v == u && d == 0: // the row that moved
			case &got[0] != base[i] || len(got) != maxIn:
				t.Fatalf("node %d: row %d left its window", v, d)
			case !dialled[v] || d == 0:
				if !slices.Equal(got, was[i]) {
					t.Fatalf("node %d: window %d changed from %v to %v", v, d, was[i], got)
				}
			}
		}
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	clone := tbl.Clone()
	if err := clone.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clone.Undirected(), tbl.Undirected()) {
		t.Fatal("the Clone of a table with an overflowing row differs from it")
	}
}

// TestAppendUndirectedMatchesUndirected writes every node's row with
// AppendUndirected, one after another into one buffer as the simulator
// does, on random tables with mutual connections (u→v and v→u both held)
// and a pinned relay tree whose edges partly repeat connections: each row
// must equal Undirected's, which must equal a map union of the node's
// connections and pins, and UndirectedBound must bound each row and their
// total.
func TestAppendUndirectedMatchesUndirected(t *testing.T) {
	r := rng.New(47)
	var rows []int32
	for trial := 0; trial < 40; trial++ {
		n := 12 + r.IntN(80)
		tbl, err := Random(n, 3, 8, r)
		if err != nil {
			t.Fatal(err)
		}
		mutual := 0
		for u := 0; u < n; u++ {
			for _, v := range tbl.OutNeighbors(u) {
				if r.IntN(3) == 0 && tbl.Connect(v, u) == nil {
					mutual++
				}
			}
		}
		if mutual == 0 {
			t.Fatalf("trial %d: no mutual connection made", trial)
		}
		members := r.Perm(n)[:n/3+2]
		edges, err := RelayTree(members, 3)
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, [2]int{0, tbl.OutNeighbors(0)[0]}) // a pin over a connection
		for _, e := range edges {
			if err := tbl.Pin(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		want := tbl.Undirected()
		pins := make([]map[int]struct{}, n)
		for u := range pins {
			pins[u] = map[int]struct{}{}
		}
		for _, e := range edges {
			pins[e[0]][e[1]], pins[e[1]][e[0]] = struct{}{}, struct{}{}
		}
		rows = rows[:0]
		for u := 0; u < n; u++ {
			conns := map[int]struct{}{}
			for _, v := range append(tbl.OutNeighbors(u), tbl.InNeighbors(u)...) {
				conns[v] = struct{}{}
			}
			if ref := refSorted(conns, pins[u]); !slices.Equal(want[u], ref) {
				t.Fatalf("trial %d: Undirected row %d = %v, map reference %v", trial, u, want[u], ref)
			}
			start := len(rows)
			rows = tbl.AppendUndirected(rows, u)
			got := make([]int, 0, len(rows)-start)
			for _, v := range rows[start:] {
				got = append(got, int(v))
			}
			if !slices.Equal(got, want[u]) {
				t.Fatalf("trial %d: AppendUndirected(%d) = %v, Undirected row %v", trial, u, got, want[u])
			}
			if bound := tbl.UndirectedBound(u, u+1); bound < len(got) {
				t.Fatalf("trial %d: UndirectedBound(%d, %d) = %d below the row's length %d", trial, u, u+1, bound, len(got))
			}
		}
		if bound := tbl.UndirectedBound(0, n); bound < len(rows) {
			t.Fatalf("trial %d: UndirectedBound %d below the rows' total %d", trial, bound, len(rows))
		}
	}
}
