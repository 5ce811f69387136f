// Package topology provides the p2p connection substrate: a
// degree-constrained connection table (outgoing connections per node,
// capped incoming connections, §2.1), topology constructors for every
// algorithm the paper evaluates (random, geographic, Kademlia-style,
// geometric threshold graphs, relay trees). The uncapped graphs of the
// stretch analysis are tables of pins; their shortest paths are the
// simulator's flood (netsim), not a graph algorithm of this package.
//
// A Table keeps each node's outgoing and incoming peers as ascending int32
// rows in fixed windows of one slab per direction, so rewiring allocates
// nothing, and the builders scan candidates by a lazy shuffle, so building
// a topology costs time proportional to its edges. A caller that moves many
// edges at once (a builder, an engine round) brackets them with Begin and
// Commit: inside the edit a move writes only the mover's out-row and the
// peer's in-degree, and Commit writes every in-row in one pass.
package topology

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Sentinel errors returned by Table operations.
var (
	// ErrSelfConnection indicates an attempt to connect a node to itself.
	ErrSelfConnection = errors.New("topology: self connection")
	// ErrDuplicateConnection indicates the outgoing edge already exists.
	ErrDuplicateConnection = errors.New("topology: duplicate connection")
	// ErrIncomingFull indicates the target already has the maximum number
	// of incoming connections and refuses new ones (§5.1).
	ErrIncomingFull = errors.New("topology: incoming slots full")
	// ErrNoConnection indicates a disconnect of a non-existent edge.
	ErrNoConnection = errors.New("topology: no such connection")
	// ErrNodeRange indicates a node index outside [0, n).
	ErrNodeRange = errors.New("topology: node index out of range")
)

// Table tracks directed p2p connections with Bitcoin-style constraints:
// each node initiates outgoing connections, and each node accepts at most
// MaxIn incoming ones. Communication is bidirectional once established, so
// the effective gossip graph is the undirected union (see Undirected).
//
// A table may also carry pinned edges (see Pin): permanent undirected links
// such as an embedded relay tree (§5.4). They join the gossip graph but
// hold no connection slot, so the per-node accessors (OutNeighbors,
// InNeighbors, the degrees) and Connect/Disconnect never see them.
type Table struct {
	n     int
	maxIn int
	// out[u] and in[u] are ascending rows of node indices. Each starts as
	// u's window of one slab per direction, maxIn wide (see windows), so
	// membership is a search of a few steps, insert and remove shift in
	// place, and neither allocates. An in-row never outgrows its window; an
	// out-row longer than maxIn moves to the heap as append moves it,
	// leaving every other window as it was.
	out [][]int32
	in  [][]int32
	// pins[u] is u's ascending row of pinned peers, mirrored at each end;
	// empty until the first Pin.
	pins [][]int32
	// version increments on every successful edge mutation, letting callers
	// (e.g. the engine's cached simulator) detect topology changes without
	// comparing adjacencies.
	version uint64
	// editing is set between Begin and Commit. Inside an edit an in-row's
	// length still counts the node's incoming connections, which is all
	// InFree and Connect's cap check read, but its entries are stale: a
	// move changes the length alone, and Commit writes every in-row anew.
	editing bool
}

// NewTable creates an empty table for n nodes with the given incoming cap.
func NewTable(n, maxIn int) (*Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: table size %d must be positive", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("topology: table size %d exceeds the int32 node index", n)
	}
	if maxIn <= 0 {
		return nil, fmt.Errorf("topology: incoming cap %d must be positive", maxIn)
	}
	return &Table{n: n, maxIn: maxIn, out: windows(n, maxIn), in: windows(n, maxIn)}, nil
}

// windows returns n empty rows, row u the window [u·w, (u+1)·w) of one
// slab, where w is maxIn or, in a table too small to fill that, n−1, the
// most peers a node can have in one direction. A row's capacity ends where
// the next window begins, so a row that grows past it moves to the heap
// rather than into its neighbour.
func windows(n, maxIn int) [][]int32 {
	w := min(maxIn, n-1)
	slab := make([]int32, n*w)
	rows := make([][]int32, n)
	for u := range rows {
		rows[u] = slab[u*w : u*w : (u+1)*w]
	}
	return rows
}

// N returns the number of nodes.
func (t *Table) N() int { return t.n }

func (t *Table) checkNode(u int) error {
	if u < 0 || u >= t.n {
		return fmt.Errorf("%w: %d (n=%d)", ErrNodeRange, u, t.n)
	}
	return nil
}

// linearMax is the longest row search scans entry by entry. Out-rows hold
// about the out-degree and in-rows at most the incoming cap, so nearly
// every search is a scan of a few entries, which beats a bisection's
// unpredictable branches; a longer row (a hub's pins, an out-row that
// outgrew its window) is bisected.
const linearMax = 32

// search returns the index at which v is, or would be inserted, in the
// ascending row, and whether it is there.
func search(row []int32, v int32) (int, bool) {
	if len(row) > linearMax {
		return slices.BinarySearch(row, v)
	}
	for i, w := range row {
		if w >= v {
			return i, w == v
		}
	}
	return len(row), false
}

// insertAt inserts v at index i of row, shifting the tail up by one; the
// row grows in place while its capacity lasts.
func insertAt(row []int32, i int, v int32) []int32 {
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = v
	return row
}

// deleteAt removes index i of row, shifting the tail down by one.
func deleteAt(row []int32, i int) []int32 {
	copy(row[i:], row[i+1:])
	return row[:len(row)-1]
}

// insertSorted adds v to the ascending row unless it is already there.
func insertSorted(row []int32, v int) []int32 {
	if i, ok := search(row, int32(v)); !ok {
		row = insertAt(row, i, int32(v))
	}
	return row
}

// contains reports whether the ascending row holds v.
func contains(row []int32, v int) bool {
	_, ok := search(row, int32(v))
	return ok
}

// Connect adds the outgoing edge u->v. It fails with ErrIncomingFull if v
// has no incoming slots left, mirroring a declined TCP connection request.
func (t *Table) Connect(u, v int) error {
	if err := t.checkNode(u); err != nil {
		return err
	}
	if err := t.checkNode(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("%w: node %d", ErrSelfConnection, u)
	}
	i, dup := search(t.out[u], int32(v))
	if dup {
		return fmt.Errorf("%w: %d->%d", ErrDuplicateConnection, u, v)
	}
	if len(t.in[v]) >= t.maxIn {
		return fmt.Errorf("%w: node %d", ErrIncomingFull, v)
	}
	t.connectAt(u, v, i)
	return nil
}

// tryConnect adds u->v if v is another node with a free incoming slot that
// u does not dial yet, and reports whether it did: Connect for a builder
// that offers u candidate after candidate and builds no error for a
// refusal. Both nodes must be in range.
func (t *Table) tryConnect(u, v int) bool {
	if u == v || len(t.in[v]) >= t.maxIn {
		return false
	}
	i, dup := search(t.out[u], int32(v))
	if !dup {
		t.connectAt(u, v, i)
	}
	return !dup
}

// connectAt adds u->v, v belonging at index i of u's out-row.
func (t *Table) connectAt(u, v, i int) {
	t.out[u] = insertAt(t.out[u], i, int32(v))
	if t.editing {
		t.in[v] = t.in[v][:len(t.in[v])+1]
	} else {
		t.in[v] = insertSorted(t.in[v], u)
	}
	t.version++
}

// Disconnect removes the outgoing edge u->v.
func (t *Table) Disconnect(u, v int) error {
	if err := t.checkNode(u); err != nil {
		return err
	}
	if err := t.checkNode(v); err != nil {
		return err
	}
	i, ok := search(t.out[u], int32(v))
	if !ok {
		return fmt.Errorf("%w: %d->%d", ErrNoConnection, u, v)
	}
	t.out[u] = deleteAt(t.out[u], i)
	if t.editing {
		t.in[v] = t.in[v][:len(t.in[v])-1]
	} else {
		j, _ := search(t.in[v], int32(u))
		t.in[v] = deleteAt(t.in[v], j)
	}
	t.version++
	return nil
}

// Begin opens a batched edit, which Commit closes. Inside it Connect and
// Disconnect make the same checks, refusals and Version steps as outside,
// but write only u's out-row and v's incoming count, so a move costs no
// search or shift of v's cache-cold row. HasOut, OutDegree, InFree,
// UndirectedBound and the out-row readers stay exact; InNeighbors,
// AppendUndirected, Undirected, UndirectedInto and Clone panic until
// Commit, and Validate reports the open edit. An edit does not nest: Begin
// inside one is a no-op.
func (t *Table) Begin() { t.editing = true }

// Commit closes the edit Begin opened, writing every in-row in one
// ascending pass over the out-rows; the table is then exactly the one the
// same calls would have built outside an edit. Outside an edit it is a
// no-op. It allocates nothing: an in-row never outgrows its window.
func (t *Table) Commit() {
	if !t.editing {
		return
	}
	t.editing = false
	for v := range t.in {
		t.in[v] = t.in[v][:0]
	}
	for u, row := range t.out {
		for _, v := range row {
			t.in[v] = append(t.in[v], int32(u))
		}
	}
}

// committed panics inside an edit, where in-rows are stale.
func (t *Table) committed() {
	if t.editing {
		panic("topology: in-rows read inside an uncommitted edit")
	}
}

// Pin records a permanent undirected edge between u and v, which Undirected
// reports for as long as the table lives. A pin takes no outgoing or
// incoming slot, ignores the incoming cap, and survives a Disconnect of the
// same pair; pinning a pinned pair again is a no-op. It fails only on a
// self edge or an out-of-range node.
func (t *Table) Pin(u, v int) error {
	if err := t.checkNode(u); err != nil {
		return err
	}
	if err := t.checkNode(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("%w: node %d", ErrSelfConnection, u)
	}
	if len(t.pins) == 0 {
		t.pins = make([][]int32, t.n)
	}
	if contains(t.pins[u], v) {
		return nil
	}
	t.pins[u] = insertSorted(t.pins[u], v)
	t.pins[v] = insertSorted(t.pins[v], u)
	t.version++
	return nil
}

// Version returns a counter that increments on every successful Connect,
// Disconnect or new Pin. Two calls returning the same value bracket a window in which
// the table's edge set did not change, so derived structures (adjacency
// snapshots, simulators) built in between are still current.
func (t *Table) Version() uint64 { return t.version }

// HasOut reports whether the outgoing edge u->v exists.
func (t *Table) HasOut(u, v int) bool {
	return uint(v) < uint(t.n) && contains(t.out[u], v)
}

// OutDegree returns the number of outgoing connections of u.
func (t *Table) OutDegree(u int) int { return len(t.out[u]) }

// InFree returns the number of remaining incoming slots at u.
func (t *Table) InFree(u int) int { return t.maxIn - len(t.in[u]) }

// OutNeighbors returns a copy of u's outgoing neighbors in ascending order.
func (t *Table) OutNeighbors(u int) []int {
	return appendInts(make([]int, 0, len(t.out[u])), t.out[u])
}

// AppendOutNeighbors appends u's outgoing neighbors in ascending order to
// buf and returns the extended slice, reusing buf's capacity. Callers on
// hot paths pass buf[:0] to avoid the per-call allocation of OutNeighbors.
func (t *Table) AppendOutNeighbors(buf []int, u int) []int {
	return appendInts(buf, t.out[u])
}

// InNeighbors returns a copy of u's incoming neighbors in ascending order.
func (t *Table) InNeighbors(u int) []int {
	t.committed()
	return appendInts(make([]int, 0, len(t.in[u])), t.in[u])
}

// appendInts appends row to dst as ints.
func appendInts(dst []int, row []int32) []int {
	dst = slices.Grow(dst, len(row))
	for _, v := range row {
		dst = append(dst, int(v))
	}
	return dst
}

// appendMerge appends the union of the ascending rows a, b and c to dst,
// ascending and without duplicates.
func appendMerge[E int | int32](dst []E, a, b, c []int32) []E {
	head := func(row []int32) int {
		if len(row) == 0 {
			return math.MaxInt
		}
		return int(row[0])
	}
	skip := func(row []int32, v int) []int32 {
		if len(row) > 0 && int(row[0]) == v {
			return row[1:]
		}
		return row
	}
	for {
		v := min(head(a), head(b), head(c))
		if v == math.MaxInt {
			return dst
		}
		dst = append(dst, E(v))
		a, b, c = skip(a, v), skip(b, v), skip(c, v)
	}
}

// pinRow returns u's ascending row of pinned peers, nil before the first Pin.
func (t *Table) pinRow(u int) []int32 {
	if len(t.pins) == 0 {
		return nil
	}
	return t.pins[u]
}

// AppendUndirected appends u's row of the communication graph (outgoing ∪
// incoming ∪ pinned peers, ascending, without duplicates) to dst and
// returns the extended slice. The engine's simulator builds its CSR from
// these rows (see netsim.Rows); Undirected is the same rows as a snapshot.
func (t *Table) AppendUndirected(dst []int32, u int) []int32 {
	t.committed()
	return appendMerge(dst, t.out[u], t.in[u], t.pinRow(u))
}

// UndirectedBound returns an upper bound on the total length of the
// communication graph's rows lo .. hi-1: the summed lengths of their
// outgoing, incoming and pinned rows. It overcounts only a pair connected
// in both directions, or connected and pinned.
func (t *Table) UndirectedBound(lo, hi int) int {
	total := 0
	for u := lo; u < hi; u++ {
		total += len(t.out[u]) + len(t.in[u]) + len(t.pinRow(u))
	}
	return total
}

// Undirected returns the symmetric adjacency lists of the communication
// graph, row u as AppendUndirected writes it. The result is a snapshot; it
// does not alias the table.
func (t *Table) Undirected() [][]int {
	return t.UndirectedInto(nil)
}

// UndirectedInto fills adj with the symmetric adjacency snapshot, reusing
// adj's outer slice and per-row capacity when possible (pass the previous
// round's snapshot to rebuild it without reallocating). Row u is the one
// AppendUndirected writes, and no row aliases the table.
func (t *Table) UndirectedInto(adj [][]int) [][]int {
	t.committed()
	if cap(adj) < t.n {
		adj = make([][]int, t.n)
	}
	adj = adj[:t.n]
	for u := range adj {
		adj[u] = appendMerge(adj[u][:0], t.out[u], t.in[u], t.pinRow(u))
	}
	return adj
}

// Clone deep-copies the table, pins included.
func (t *Table) Clone() *Table {
	t.committed()
	return &Table{n: t.n, maxIn: t.maxIn, out: t.cloneRows(t.out), in: t.cloneRows(t.in), pins: clonePins(t.pins)}
}

// cloneRows copies rows into fresh windows (see windows); only an out-row
// that had outgrown its window is copied to the heap again.
func (t *Table) cloneRows(rows [][]int32) [][]int32 {
	out := windows(t.n, t.maxIn)
	for u, row := range rows {
		out[u] = append(out[u], row...)
	}
	return out
}

// clonePins copies pin rows into one backing array; each copy's capacity
// ends where the next begins, so a row that grows moves out rather than
// into its neighbour.
func clonePins(rows [][]int32) [][]int32 {
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	backing := make([]int32, 0, total)
	out := make([][]int32, len(rows))
	for i, row := range rows {
		start := len(backing)
		backing = append(backing, row...)
		out[i] = backing[start:len(backing):len(backing)]
	}
	return out
}

// Validate checks the table's internal invariants: rows strictly ascending,
// out/in mirroring each other, pins mirroring themselves, no self loops or
// out-of-range pins, the incoming cap holding, and no edit open.
// Tests call it on the tables they build.
func (t *Table) Validate() error {
	if t.editing {
		return errors.New("topology: edit not committed")
	}
	for u := 0; u < t.n; u++ {
		if len(t.in[u]) > t.maxIn {
			return fmt.Errorf("topology: node %d has %d incoming, cap %d", u, len(t.in[u]), t.maxIn)
		}
		pins := t.pinRow(u)
		for _, row := range [][]int32{t.out[u], t.in[u], pins} {
			for i := 1; i < len(row); i++ {
				if row[i-1] >= row[i] {
					return fmt.Errorf("topology: node %d has a row out of order: %v", u, row)
				}
			}
		}
		for _, v := range t.out[u] {
			if int(v) == u {
				return fmt.Errorf("topology: node %d has self loop", u)
			}
			if !contains(t.in[v], u) {
				return fmt.Errorf("topology: edge %d->%d missing from in-set", u, v)
			}
		}
		for _, v := range t.in[u] {
			if !contains(t.out[v], u) {
				return fmt.Errorf("topology: in-edge %d<-%d missing from out-set", u, v)
			}
		}
		for _, v := range pins {
			if int(v) == u || v < 0 || int(v) >= t.n {
				return fmt.Errorf("topology: node %d has pin to %d", u, v)
			}
			if !contains(t.pins[v], u) {
				return fmt.Errorf("topology: pin %d-%d missing at %d", u, v, v)
			}
		}
	}
	return nil
}
