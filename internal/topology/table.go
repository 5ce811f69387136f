// Package topology provides the p2p connection substrate: a
// degree-constrained connection table (outgoing connections per node,
// capped incoming connections, §2.1), topology constructors for every
// algorithm the paper evaluates (random, geographic, Kademlia-style,
// geometric threshold graphs, relay trees), and the graph algorithms the
// analysis sections rely on (Dijkstra, BFS, stretch).
//
// A Table stores each node's outgoing and incoming peers as short ascending
// slices, and the builders scan candidates by a lazy shuffle, so building
// and rewiring a topology costs time proportional to its edges.
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
	// out[u] and in[u] are ascending rows of node indices. Rows are short
	// (out-degree 8, in-degree at most maxIn), so membership is a search of
	// a few steps, insert and remove shift in place, and a row's capacity is
	// reused for the life of the table.
	out [][]int
	in  [][]int
	// pins[u] is u's ascending row of pinned peers, mirrored at each end;
	// empty until the first Pin.
	pins [][]int
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
	if maxIn <= 0 {
		return nil, fmt.Errorf("topology: incoming cap %d must be positive", maxIn)
	}
	return &Table{n: n, maxIn: maxIn, out: make([][]int, n), in: make([][]int, n)}, nil
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
func insertSorted(row []int, v int) []int {
	if i, ok := slices.BinarySearch(row, v); !ok {
		row = slices.Insert(row, i, v)
	}
	return row
}

// removeSorted deletes v, which must be present, from the ascending row.
func removeSorted(row []int, v int) []int {
	i, _ := slices.BinarySearch(row, v)
	return slices.Delete(row, i, i+1)
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
		t.pins = make([][]int, t.n)
	}
	if _, ok := slices.BinarySearch(t.pins[u], v); ok {
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
	_, ok := slices.BinarySearch(t.out[u], v)
	return ok
}

// OutDegree returns the number of outgoing connections of u.
func (t *Table) OutDegree(u int) int { return len(t.out[u]) }

// InFree returns the number of remaining incoming slots at u.
func (t *Table) InFree(u int) int { return t.maxIn - len(t.in[u]) }

// OutNeighbors returns a copy of u's outgoing neighbors in ascending order.
func (t *Table) OutNeighbors(u int) []int { return append(make([]int, 0, len(t.out[u])), t.out[u]...) }

// AppendOutNeighbors appends u's outgoing neighbors in ascending order to
// buf and returns the extended slice, reusing buf's capacity. Callers on
// hot paths pass buf[:0] to avoid the per-call allocation of OutNeighbors.
func (t *Table) AppendOutNeighbors(buf []int, u int) []int {
	return append(buf, t.out[u]...)
}

// InNeighbors returns a copy of u's incoming neighbors in ascending order.
func (t *Table) InNeighbors(u int) []int { return append(make([]int, 0, len(t.in[u])), t.in[u]...) }

// appendMerge appends the union of the ascending rows a, b and c to dst,
// ascending and without duplicates.
func appendMerge[E int | int32](dst []E, a, b, c []int) []E {
	head := func(row []int) int {
		if len(row) == 0 {
			return math.MaxInt
		}
		return row[0]
	}
	skip := func(row []int, v int) []int {
		if len(row) > 0 && row[0] == v {
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
func (t *Table) pinRow(u int) []int {
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
// communication graph's rows: the summed lengths of every outgoing,
// incoming and pinned row. It overcounts only a pair connected in both
// directions, or connected and pinned.
func (t *Table) UndirectedBound() int {
	total := 0
	for u := 0; u < t.n; u++ {
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
	return &Table{n: t.n, maxIn: t.maxIn, out: cloneRows(t.out), in: cloneRows(t.in), pins: cloneRows(t.pins)}
}

// cloneRows copies rows into one backing array; each copy's capacity ends
// where the next begins, so a row that grows moves out rather than into
// its neighbour.
func cloneRows(rows [][]int) [][]int {
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	backing := make([]int, 0, total)
	out := make([][]int, len(rows))
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
		for _, row := range [][]int{t.out[u], t.in[u], pins} {
			for i := 1; i < len(row); i++ {
				if row[i-1] >= row[i] {
					return fmt.Errorf("topology: node %d has a row out of order: %v", u, row)
				}
			}
		}
		for _, v := range t.out[u] {
			if v == u {
				return fmt.Errorf("topology: node %d has self loop", u)
			}
			if _, ok := slices.BinarySearch(t.in[v], u); !ok {
				return fmt.Errorf("topology: edge %d->%d missing from in-set", u, v)
			}
		}
		for _, v := range t.in[u] {
			if !t.HasOut(v, u) {
				return fmt.Errorf("topology: in-edge %d<-%d missing from out-set", u, v)
			}
		}
		for _, v := range pins {
			if v == u || v < 0 || v >= t.n {
				return fmt.Errorf("topology: node %d has pin to %d", u, v)
			}
			if _, ok := slices.BinarySearch(t.pins[v], u); !ok {
				return fmt.Errorf("topology: pin %d-%d missing at %d", u, v, v)
			}
		}
	}
	return nil
}
