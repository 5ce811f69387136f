// Package topology provides the p2p connection substrate: a
// degree-constrained connection table (outgoing connections per node,
// capped incoming connections, §2.1), topology constructors for every
// algorithm the paper evaluates (random, geographic, Kademlia-style,
// geometric threshold graphs, relay trees), and the graph algorithms the
// analysis sections rely on (Dijkstra, BFS, stretch).
//
// A Table keeps each node's outgoing and incoming peers as ascending int32
// rows in fixed windows of one slab per direction, so rewiring allocates
// nothing, and the builders scan candidates by a lazy shuffle, so building
// a topology costs time proportional to its edges.
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

// insertSorted adds v to the ascending row unless it is already there.
func insertSorted(row []int32, v int) []int32 {
	if i, ok := slices.BinarySearch(row, int32(v)); !ok {
		row = slices.Insert(row, i, int32(v))
	}
	return row
}

// removeSorted deletes v, which must be present, from the ascending row.
func removeSorted(row []int32, v int) []int32 {
	i, _ := slices.BinarySearch(row, int32(v))
	return slices.Delete(row, i, i+1)
}

// contains reports whether the ascending row holds v.
func contains(row []int32, v int) bool {
	_, ok := slices.BinarySearch(row, int32(v))
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
	if t.HasOut(u, v) {
		return fmt.Errorf("%w: %d->%d", ErrDuplicateConnection, u, v)
	}
	if len(t.in[v]) >= t.maxIn {
		return fmt.Errorf("%w: node %d", ErrIncomingFull, v)
	}
	t.out[u] = insertSorted(t.out[u], v)
	t.in[v] = insertSorted(t.in[v], u)
	t.version++
	return nil
}

// Disconnect removes the outgoing edge u->v.
func (t *Table) Disconnect(u, v int) error {
	if err := t.checkNode(u); err != nil {
		return err
	}
	if err := t.checkNode(v); err != nil {
		return err
	}
	if !t.HasOut(u, v) {
		return fmt.Errorf("%w: %d->%d", ErrNoConnection, u, v)
	}
	t.out[u] = removeSorted(t.out[u], v)
	t.in[v] = removeSorted(t.in[v], u)
	t.version++
	return nil
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
// out-of-range pins, and the incoming cap holding.
// Tests call it on the tables they build.
func (t *Table) Validate() error {
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
