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

// seenKey orders blocks by observation for first-seen fork resolution.
// The live path (Add) stamps blocks with a monotone sequence under the
// store lock; the simulation path (AddAt) stamps them with a caller-supplied
// simulated timestamp, falling back to the block hash so the resolved tip is
// a pure function of the offered (block, time) set — independent of the
// order, interleaving, or worker count with which blocks were offered.
type seenKey struct {
	at   time.Duration
	seq  uint64
	hash Hash
}

// before reports whether a was seen strictly earlier than b.
func (a seenKey) before(b seenKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return bytes.Compare(a.hash[:], b.hash[:]) < 0
}

// entry is a connected block plus its observation stamp.
type entry struct {
	block *Block
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
type Store struct {
	mu      sync.RWMutex
	blocks  map[Hash]*entry
	genesis Hash
	tip     Hash
	seq     uint64
	// orphans stashes offered blocks waiting for their parent, keyed by
	// the missing parent hash; orphanSet indexes every stashed hash.
	orphans   map[Hash][]*entry
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
	return &Store{
		blocks:    map[Hash]*entry{h: {block: genesis, seen: seenKey{hash: h}}},
		genesis:   h,
		tip:       h,
		orphans:   make(map[Hash][]*entry),
		orphanSet: make(map[Hash]struct{}),
	}, nil
}

// Add validates and stores a block. The parent must already be present
// (an unknown parent is ErrOrphanBlock — the live node path requests the
// parent rather than stashing). The tip advances when the new block is
// strictly higher; height ties keep the earlier-added block.
func (s *Store) Add(b *Block) error {
	if err := CheckBlock(b); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidBlock, err)
	}
	h := b.Header.Hash()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	e := &entry{block: b, seen: seenKey{seq: s.seq, hash: h}}
	if _, err := s.connectLocked(h, e, false); err != nil {
		return err
	}
	return nil
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
	if _, dup := s.blocks[h]; dup {
		return res, fmt.Errorf("%w: %s", ErrDuplicateBlock, h)
	}
	if _, dup := s.orphanSet[h]; dup {
		return res, fmt.Errorf("%w: %s (stashed)", ErrDuplicateBlock, h)
	}
	e := &entry{block: b, seen: seenKey{at: seen, hash: h}}
	if _, ok := s.blocks[b.Header.PrevHash]; !ok {
		if len(s.orphanSet) >= MaxOrphans {
			return res, fmt.Errorf("%w: %d blocks stashed", ErrOrphanPoolFull, len(s.orphanSet))
		}
		s.orphans[b.Header.PrevHash] = append(s.orphans[b.Header.PrevHash], e)
		s.orphanSet[h] = struct{}{}
		res.Stashed = true
		return res, nil
	}
	oldTip := s.tip
	connected, err := s.connectLocked(h, e, true)
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

// connectLocked links a validated non-duplicate entry under the parent
// already known to exist, advances the tip by the longest-chain/first-seen
// rule, and (when unstash is set) drains any orphans waiting on it,
// recursively. Waiting orphans connect in seen order so multi-child
// unstashes are order-independent too. Returns how many blocks connected.
func (s *Store) connectLocked(h Hash, e *entry, unstash bool) (int, error) {
	if _, dup := s.blocks[h]; dup {
		return 0, fmt.Errorf("%w: %s", ErrDuplicateBlock, h)
	}
	parent, ok := s.blocks[e.block.Header.PrevHash]
	if !ok {
		return 0, fmt.Errorf("%w: parent %s of %s", ErrOrphanBlock, e.block.Header.PrevHash, h)
	}
	if e.block.Header.Height != parent.block.Header.Height+1 {
		return 0, fmt.Errorf("%w: %d after parent %d", ErrBadHeight, e.block.Header.Height, parent.block.Header.Height)
	}
	s.blocks[h] = e
	tip := s.blocks[s.tip]
	if e.block.Header.Height > tip.block.Header.Height ||
		(e.block.Header.Height == tip.block.Header.Height && e.seen.before(tip.seen)) {
		s.tip = h
	}
	connected := 1
	if !unstash {
		return connected, nil
	}
	waiting := s.orphans[h]
	if len(waiting) == 0 {
		return connected, nil
	}
	delete(s.orphans, h)
	for i := 1; i < len(waiting); i++ {
		for j := i; j > 0 && waiting[j].seen.before(waiting[j-1].seen); j-- {
			waiting[j], waiting[j-1] = waiting[j-1], waiting[j]
		}
	}
	for _, child := range waiting {
		ch := child.block.Header.Hash()
		delete(s.orphanSet, ch)
		n, err := s.connectLocked(ch, child, true)
		if err != nil {
			return connected, err
		}
		connected += n
	}
	return connected, nil
}

// reorgDepthLocked counts the blocks on old's branch abandoned by moving
// the tip to new: the distance from old back to the two branches' common
// ancestor (0 when old is an ancestor of new).
func (s *Store) reorgDepthLocked(old, new Hash) int {
	a, b := s.blocks[old], s.blocks[new]
	for b.block.Header.Height > a.block.Header.Height {
		b = s.blocks[b.block.Header.PrevHash]
	}
	depth := 0
	for a.block.Header.Height > b.block.Header.Height {
		a = s.blocks[a.block.Header.PrevHash]
		depth++
	}
	for a != b {
		a = s.blocks[a.block.Header.PrevHash]
		b = s.blocks[b.block.Header.PrevHash]
		depth++
	}
	return depth
}

// Has reports whether the block is stored (connected; stashed orphans
// don't count).
func (s *Store) Has(h Hash) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.blocks[h]
	return ok
}

// Get returns a stored block, or nil.
func (s *Store) Get(h Hash) *Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.blocks[h]; ok {
		return e.block
	}
	return nil
}

// Tip returns the current best block.
func (s *Store) Tip() *Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.blocks[s.tip].block
}

// Height returns the current best height.
func (s *Store) Height() uint64 {
	return s.Tip().Header.Height
}

// Len returns the number of connected blocks (including genesis).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks)
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
