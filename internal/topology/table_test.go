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
	return appendUnion(make([]int, 0, len(t.out[u])+len(t.in[u])), t.out[u], t.in[u])
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
// same pair, and after every operation the undirected graph, the per-node
// accessors (which never see pins), the version and Validate must agree
// with the model.
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
			adj = tbl.UndirectedInto(adj)
			if ops[i]%3 == 1 && got == nil {
				if _, pinned := ref.pins[u][v]; pinned && !slices.Contains(adj[u], v) {
					t.Fatalf("op %d: Disconnect(%d, %d) dropped the pin", i/3, u, v)
				}
			}
			for w := 0; w < n; w++ {
				if want := refSorted(ref.out[w], ref.in[w], ref.pins[w]); !reflect.DeepEqual(adj[w], want) && len(adj[w])+len(want) > 0 {
					t.Fatalf("op %d: Undirected(%d) = %v, model %v", i/3, w, adj[w], want)
				}
				if !reflect.DeepEqual(neighbors(tbl, w), refSorted(ref.out[w], ref.in[w])) {
					t.Fatalf("op %d: Neighbors(%d) = %v sees a pin", i/3, w, neighbors(tbl, w))
				}
			}
			if tbl.Version() != ref.version {
				t.Fatalf("op %d: Version = %d, model %d", i/3, tbl.Version(), ref.version)
			}
			if err := tbl.Validate(); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
		}
	})
}
