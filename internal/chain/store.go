package chain

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Store errors.
var (
	// ErrDuplicateBlock indicates the block is already stored (or stashed).
	ErrDuplicateBlock = errors.New("chain: duplicate block")
	// ErrOrphanBlock indicates the block's parent is unknown.
	ErrOrphanBlock = errors.New("chain: orphan block")
	// ErrBadHeight indicates the block's height is not parent height + 1.
	ErrBadHeight = errors.New("chain: bad height")
	// ErrInvalidBlock wraps the CheckBlock failure of a block offered to
	// Add or AddAt, so a caller can tell a bad block from a bad position.
	ErrInvalidBlock = errors.New("chain: invalid block")
	// ErrOrphanPoolFull indicates the orphan pool is at capacity.
	ErrOrphanPoolFull = errors.New("chain: orphan pool full")
)

// MaxOrphans bounds the orphan pool: blocks whose parent has not arrived
// yet are a transient state in any honest schedule, so the cap only
// protects against hostile floods of unconnectable headers.
const MaxOrphans = 1 << 12

// BodyWindow is how many of the most recently connected blocks keep their
// bodies. It equals the live node's default observation cap and MaxOrphans:
// an older body can feed no Perigee round, and a backward sync whose stash
// holds MaxOrphans blocks cannot reach it either.
const BodyWindow = 1 << 12

// seenKey orders blocks by observation for first-seen fork resolution.
// The live path (Add) stamps blocks with a monotone sequence under the
// store lock; the simulation path (AddAt) stamps them with a caller-supplied
// simulated timestamp, falling back to the block hash so the resolved tip is
// a pure function of the offered (block, time) set — independent of the
// order, interleaving, or worker count with which blocks were offered.
type seenKey struct {
	at  time.Duration
	seq uint64
}

// seenBefore reports whether block ah, seen at a, was seen strictly earlier
// than block bh, seen at b.
func seenBefore(a seenKey, ah Hash, b seenKey, bh Hash) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return bytes.Compare(ah[:], bh[:]) < 0
}

// indexEntry is what the store keeps of a connected block for ever: its
// header, its observation stamp and its connect sequence number (genesis is
// 0), which locates the body in the ring while it is there. It must stay
// pointer-free and at most 128 bytes: the map then stores it inline, an
// insert allocates nothing, and the collector never scans the index.
type indexEntry struct {
	header Header
	seen   seenKey
	order  uint64
}

// stashed is an offered block waiting in the orphan pool for its parent.
type stashed struct {
	block *Block
	hash  Hash
	seen  seenKey
}

// AddResult describes the effect of offering a block via AddAt.
type AddResult struct {
	// Stashed reports that the parent was unknown and the block went to
	// the orphan pool instead of the chain.
	Stashed bool
	// Connected is how many blocks entered the chain: the offered block
	// plus every orphan its arrival unstashed (0 when Stashed).
	Connected int
	// TipChanged reports whether the best tip moved.
	TipChanged bool
	// ReorgDepth is the number of previously-canonical blocks abandoned
	// by the tip move (0 for a plain extension of the old tip).
	ReorgDepth int
}

// Store is a thread-safe block store with longest-chain (highest block)
// fork choice. Height ties resolve by the first-seen rule, matching
// Bitcoin: via Add, "first" is arrival order at this store; via AddAt it
// is the caller's timestamp (ties broken by hash), which makes the
// resolved tip deterministic under any concurrent interleaving.
//
// The store keeps every connected block's header for ever and the bodies of
// the last BodyWindow connected blocks, plus the tip's: fork choice, duplicate
// detection and reorg depth read headers only, so its memory grows by one
// index entry per block rather than by one block.
type Store struct {
	mu      sync.RWMutex
	index   map[Hash]indexEntry
	bodies  []*Block // ring: the block connected order-th sits at order % BodyWindow
	newest  uint64   // order of the last connected block
	genesis Hash
	tip     Hash
	tipBody *Block
	seq     uint64
	// orphans stashes offered blocks waiting for their parent, keyed by
	// the missing parent hash; orphanSet indexes every stashed hash.
	orphans   map[Hash][]stashed
	orphanSet map[Hash]struct{}
}

// NewStore creates a store rooted at the given genesis block.
func NewStore(genesis *Block) (*Store, error) {
	if err := CheckBlock(genesis); err != nil {
		return nil, err
	}
	if genesis.Header.Height != 0 {
		return nil, fmt.Errorf("chain: genesis height %d, want 0", genesis.Header.Height)
	}
	h := genesis.Header.Hash()
	s := &Store{
		index:     map[Hash]indexEntry{h: {header: genesis.Header}},
		bodies:    make([]*Block, BodyWindow),
		genesis:   h,
		tip:       h,
		tipBody:   genesis,
		orphans:   make(map[Hash][]stashed),
		orphanSet: make(map[Hash]struct{}),
	}
	s.bodies[0] = genesis
	return s, nil
}

// Add validates and stores a block whose header hash the caller has already
// computed: h must be b.Header.Hash(), the store does not derive it again.
// The parent must already be present (an unknown parent is ErrOrphanBlock —
// the live node path requests the parent rather than stashing). The tip
// advances when the new block is strictly higher; height ties keep the
// earlier-added block.
func (s *Store) Add(b *Block, h Hash) error {
	if err := CheckBlock(b); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidBlock, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.index[h]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateBlock, h)
	}
	parent, ok := s.index[b.Header.PrevHash]
	if !ok {
		return fmt.Errorf("%w: parent %s of %s", ErrOrphanBlock, b.Header.PrevHash, h)
	}
	s.seq++
	_, err := s.connectLocked(stashed{block: b, hash: h, seen: seenKey{seq: s.seq}}, parent.header.Height, false)
	return err
}

// AddAt offers a block observed at the given simulated timestamp. Unlike
// Add it stashes blocks whose parent is unknown in the orphan pool and
// connects them (recursively, with their recorded timestamps) once the
// parent arrives, and it resolves height ties by earliest timestamp (then
// hash) instead of call order — so the final tip and every AddResult-visible
// state are a deterministic function of the offered (block, seen) multiset,
// no matter how calls interleave across goroutines or workers.
func (s *Store) AddAt(b *Block, seen time.Duration) (AddResult, error) {
	if err := CheckBlock(b); err != nil {
		return AddResult{}, fmt.Errorf("%w: %w", ErrInvalidBlock, err)
	}
	h := b.Header.Hash()
	s.mu.Lock()
	defer s.mu.Unlock()
	var res AddResult
	if _, dup := s.index[h]; dup {
		return res, fmt.Errorf("%w: %s", ErrDuplicateBlock, h)
	}
	if _, dup := s.orphanSet[h]; dup {
		return res, fmt.Errorf("%w: %s (stashed)", ErrDuplicateBlock, h)
	}
	e := stashed{block: b, hash: h, seen: seenKey{at: seen}}
	parent, ok := s.index[b.Header.PrevHash]
	if !ok {
		if len(s.orphanSet) >= MaxOrphans {
			return res, fmt.Errorf("%w: %d blocks stashed", ErrOrphanPoolFull, len(s.orphanSet))
		}
		s.orphans[b.Header.PrevHash] = append(s.orphans[b.Header.PrevHash], e)
		s.orphanSet[h] = struct{}{}
		res.Stashed = true
		return res, nil
	}
	oldTip := s.tip
	connected, err := s.connectLocked(e, parent.header.Height, true)
	if err != nil {
		return res, err
	}
	res.Connected = connected
	if s.tip != oldTip {
		res.TipChanged = true
		res.ReorgDepth = s.reorgDepthLocked(oldTip, s.tip)
	}
	return res, nil
}

// connectLocked links a validated block, known not to be a duplicate, under
// its parent, known to be connected at parentHeight: it indexes the header,
// puts the body in the ring (over the body connected BodyWindow blocks ago),
// advances the tip by the longest-chain/first-seen rule, and (when unstash
// is set) drains any orphans waiting on it, recursively. Waiting orphans
// connect in seen order so multi-child unstashes are order-independent too.
// Returns how many blocks connected.
func (s *Store) connectLocked(e stashed, parentHeight uint64, unstash bool) (int, error) {
	hdr := &e.block.Header
	if hdr.Height != parentHeight+1 {
		return 0, fmt.Errorf("%w: %d after parent %d", ErrBadHeight, hdr.Height, parentHeight)
	}
	s.newest++
	s.index[e.hash] = indexEntry{header: *hdr, seen: e.seen, order: s.newest}
	s.bodies[s.newest%BodyWindow] = e.block
	if tipHeight := s.tipBody.Header.Height; hdr.Height > tipHeight ||
		(hdr.Height == tipHeight && seenBefore(e.seen, e.hash, s.index[s.tip].seen, s.tip)) {
		s.tip, s.tipBody = e.hash, e.block
	}
	connected := 1
	if !unstash {
		return connected, nil
	}
	waiting := s.orphans[e.hash]
	if len(waiting) == 0 {
		return connected, nil
	}
	delete(s.orphans, e.hash)
	for i := 1; i < len(waiting); i++ {
		for j := i; j > 0 && seenBefore(waiting[j].seen, waiting[j].hash, waiting[j-1].seen, waiting[j-1].hash); j-- {
			waiting[j], waiting[j-1] = waiting[j-1], waiting[j]
		}
	}
	for _, child := range waiting {
		delete(s.orphanSet, child.hash)
		n, err := s.connectLocked(child, hdr.Height, true)
		if err != nil {
			return connected, err
		}
		connected += n
	}
	return connected, nil
}

// reorgDepthLocked counts the blocks on old's branch abandoned by moving
// the tip to new: the distance from old back to the two branches' common
// ancestor (0 when old is an ancestor of new). It walks headers, so the
// branches may be deeper than the body window.
func (s *Store) reorgDepthLocked(old, new Hash) int {
	a, b := s.index[old].header, s.index[new].header
	for b.Height > a.Height {
		new = b.PrevHash
		b = s.index[new].header
	}
	depth := 0
	for a.Height > b.Height {
		old = a.PrevHash
		a = s.index[old].header
		depth++
	}
	for old != new {
		old, new = a.PrevHash, b.PrevHash
		a, b = s.index[old].header, s.index[new].header
		depth++
	}
	return depth
}

// Has reports whether the block is stored (connected; stashed orphans
// don't count). It stays true after the block's body has aged out.
func (s *Store) Has(h Hash) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[h]
	return ok
}

// Header returns the header of a connected block, however old.
func (s *Store) Header(h Hash) (Header, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.index[h]
	return e.header, ok
}

// Get returns a stored block, or nil for a hash that is unknown or whose
// body has aged out: only the last BodyWindow connected blocks and the tip
// keep theirs.
func (s *Store) Get(h Hash) *Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.index[h]
	switch {
	case !ok:
		return nil
	case s.newest-e.order < BodyWindow:
		return s.bodies[e.order%BodyWindow]
	case h == s.tip:
		return s.tipBody
	}
	return nil
}

// Tip returns the current best block, body included.
func (s *Store) Tip() *Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tipBody
}

// NewBlock assembles a child of the current tip, as the package's NewBlock
// does, without hashing the tip's header again: the store indexes by it.
func (s *Store) NewBlock(txs [][]byte, now time.Time, nonce uint64) *Block {
	s.mu.RLock()
	prev, height := s.tip, s.tipBody.Header.Height
	s.mu.RUnlock()
	return newChild(prev, height+1, txs, now, nonce)
}

// Height returns the current best height.
func (s *Store) Height() uint64 {
	return s.Tip().Header.Height
}

// Len returns the number of connected blocks (including genesis).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// OrphanCount returns how many offered blocks are stashed waiting for a
// parent.
func (s *Store) OrphanCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.orphanSet)
}

// Genesis returns the genesis hash.
func (s *Store) Genesis() Hash {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.genesis
}
