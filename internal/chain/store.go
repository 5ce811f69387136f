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
	// ErrBadHeight indicates the block's height is not parent height + 1.
	ErrBadHeight = errors.New("chain: bad height")
	// ErrInvalidBlock wraps the CheckBlock failure of a block offered to
	// Add or AddAt, so a caller can tell a bad block from a bad position.
	ErrInvalidBlock = errors.New("chain: invalid block")
	// ErrOrphanPoolFull indicates the orphan stash is at capacity.
	ErrOrphanPoolFull = errors.New("chain: orphan pool full")
)

// MaxOrphans caps the stash of blocks waiting for their parent. An honest
// block waits there only until its parent lands, so the cap only bounds what
// blocks whose parent never comes can make the store hold.
const MaxOrphans = 1 << 12

// BodyWindow is how many of the most recently connected blocks keep their
// bodies. It equals the live node's default observation cap and MaxOrphans:
// an older body can feed no Perigee round, and a backward sync whose stash
// holds MaxOrphans blocks cannot reach it either.
const BodyWindow = 1 << 12

// stashed is a validated block with its hash, as the orphan stash holds it,
// and, when AddAt offered it, the time it was seen.
type stashed struct {
	block *Block
	hash  Hash
	at    time.Duration
	timed bool
}

// seenBefore reports whether e was seen strictly before a block with hash h
// seen at at: the earlier time first, then the lower hash. An Add-fed block
// has no time and is never first: ties keep the tip, siblings arrival order.
func (e *stashed) seenBefore(at time.Duration, h Hash) bool {
	if !e.timed {
		return false
	}
	if e.at != at {
		return e.at < at
	}
	return bytes.Compare(e.hash[:], h[:]) < 0
}

// Added describes what Add did with an offered block.
type Added struct {
	// Stashed reports that the block waits in the orphan stash: it went
	// there now, or (with ErrDuplicateBlock) was already there.
	Stashed bool
	// Unstashed names the stashed blocks that connected behind the offered
	// one, in connect order; Dropped those the unstash discarded, each at a
	// height that does not follow its parent's, or waiting on such a block.
	Unstashed, Dropped []Hash
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
// fork choice, and the one stash of blocks offered before their parent.
// Height ties resolve by the first-seen rule, matching Bitcoin: via Add,
// "first" is the order in which blocks connect to this store; via AddAt it
// is the caller's timestamp (ties broken by hash), which makes the resolved
// tip deterministic under any concurrent interleaving. A store is fed
// through one of the two.
//
// The store is a Tree, which owns fork choice and the reorg walk, under a
// map from each connected block's hash to its id: about 80 bytes a block,
// kept for ever. It keeps the bodies of the last BodyWindow connected
// blocks, plus the tip's, and only the tip's observation time, so nothing
// else of a block outlives its body.
type Store struct {
	mu      sync.RWMutex
	tree    *Tree
	index   map[Hash]int32 // hash to id
	bodies  []*Block       // ring: block id sits at id % BodyWindow
	tip     Hash
	tipID   int32
	tipAt   time.Duration
	tipBody *Block
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
		tree:      NewTree(1),
		index:     map[Hash]int32{h: 0},
		bodies:    make([]*Block, BodyWindow),
		tip:       h,
		tipBody:   genesis,
		orphans:   make(map[Hash][]stashed),
		orphanSet: make(map[Hash]struct{}),
	}
	s.bodies[0] = genesis
	return s, nil
}

// Add validates and offers a block whose header hash the caller has already
// computed: h must be b.Header.Hash(), the store does not derive it again.
// A block whose parent is unknown is stashed; one whose parent is connected
// connects, and so do the stashed blocks waiting on it, depth-first, each
// block's children in arrival order. Add allocates nothing when none waited.
func (s *Store) Add(b *Block, h Hash) (Added, error) {
	if err := CheckBlock(b); err != nil {
		return Added{}, fmt.Errorf("%w: %w", ErrInvalidBlock, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addLocked(stashed{block: b, hash: h})
}

// AddAt offers a block observed at the given simulated timestamp, as Add
// does, except that height ties, and the order in which siblings unstash, go
// by earliest timestamp (then hash) instead of call order — so the final tip
// and every AddResult-visible state are a deterministic function of the
// offered (block, seen) multiset, no matter how calls interleave across
// goroutines or workers.
func (s *Store) AddAt(b *Block, seen time.Duration) (AddResult, error) {
	if err := CheckBlock(b); err != nil {
		return AddResult{}, fmt.Errorf("%w: %w", ErrInvalidBlock, err)
	}
	h := b.Header.Hash()
	s.mu.Lock()
	defer s.mu.Unlock()
	oldTip := s.tipID
	added, err := s.addLocked(stashed{block: b, hash: h, at: seen, timed: true})
	if err != nil || added.Stashed {
		return AddResult{Stashed: err == nil}, err
	}
	res := AddResult{Connected: 1 + len(added.Unstashed)}
	if s.tipID != oldTip {
		res.TipChanged = true
		res.ReorgDepth = s.tree.ReorgDepth(oldTip, s.tipID)
	}
	return res, nil
}

// addLocked is Add and AddAt once the block is validated.
func (s *Store) addLocked(e stashed) (Added, error) {
	if _, dup := s.index[e.hash]; dup {
		return Added{}, fmt.Errorf("%w: %s", ErrDuplicateBlock, e.hash)
	}
	if _, dup := s.orphanSet[e.hash]; dup {
		return Added{Stashed: true}, fmt.Errorf("%w: %s (stashed)", ErrDuplicateBlock, e.hash)
	}
	parent, ok := s.index[e.block.Header.PrevHash]
	if !ok {
		if len(s.orphanSet) >= MaxOrphans {
			return Added{}, fmt.Errorf("%w: %d blocks stashed", ErrOrphanPoolFull, len(s.orphanSet))
		}
		s.orphans[e.block.Header.PrevHash] = append(s.orphans[e.block.Header.PrevHash], e)
		s.orphanSet[e.hash] = struct{}{}
		return Added{Stashed: true}, nil
	}
	if height, ph := e.block.Header.Height, uint64(s.tree.Height(parent)); height != ph+1 {
		return Added{}, fmt.Errorf("%w: %d after parent %d", ErrBadHeight, height, ph)
	}
	s.linkLocked(e, parent)
	var added Added
	waiting := s.unstashLocked(e.hash, nil)
	for len(waiting) > 0 {
		c := waiting[len(waiting)-1]
		waiting = waiting[:len(waiting)-1]
		// A dropped block's children find no parent and are dropped too.
		if parent, ok := s.index[c.block.Header.PrevHash]; !ok || c.block.Header.Height != uint64(s.tree.Height(parent))+1 {
			added.Dropped = append(added.Dropped, c.hash)
		} else {
			s.linkLocked(c, parent)
			added.Unstashed = append(added.Unstashed, c.hash)
		}
		waiting = s.unstashLocked(c.hash, waiting)
	}
	return added, nil
}

// linkLocked connects a block under its connected parent: it adds the block
// to the tree, indexes its hash by its id, puts the body in the ring (over
// the body connected BodyWindow blocks ago) and lets the tree advance the
// tip.
func (s *Store) linkLocked(e stashed, parent int32) {
	id := s.tree.Add(parent)
	s.index[e.hash] = id
	s.bodies[id%BodyWindow] = e.block
	if s.tree.Advance(&s.tipID, id, e.seenBefore(s.tipAt, s.tip)) {
		s.tip, s.tipAt, s.tipBody = e.hash, e.at, e.block
	}
}

// unstashLocked takes the blocks waiting on h out of the stash and pushes
// them on stack, last seen first, so the first seen pops first.
func (s *Store) unstashLocked(h Hash, stack []stashed) []stashed {
	waiting := s.orphans[h]
	if len(waiting) == 0 {
		return stack
	}
	delete(s.orphans, h)
	for i := 1; i < len(waiting); i++ {
		for j := i; j > 0 && waiting[j].seenBefore(waiting[j-1].at, waiting[j-1].hash); j-- {
			waiting[j], waiting[j-1] = waiting[j-1], waiting[j]
		}
	}
	for i := len(waiting) - 1; i >= 0; i-- {
		delete(s.orphanSet, waiting[i].hash)
		stack = append(stack, waiting[i])
	}
	return stack
}

// Has reports whether the block is stored (connected; stashed orphans
// don't count). It stays true after the block's body has aged out.
func (s *Store) Has(h Hash) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[h]
	return ok
}

// Get returns a stored block, or nil for a hash that is unknown or whose
// body has aged out: only the last BodyWindow connected blocks and the tip
// keep theirs.
func (s *Store) Get(h Hash) *Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.index[h]
	switch {
	case !ok:
		return nil
	case s.tree.Len()-int(id) <= BodyWindow:
		return s.bodies[id%BodyWindow]
	case id == s.tipID:
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

// Mine builds the child of the tip carrying a copy of txs and links it as
// the new tip, returning the block and its header hash. The parent is read
// and the child linked under one lock, so the tip cannot move in between,
// and the block is not checked again: Mine enforces the limits CheckBlock
// enforces (a breach is ErrInvalidBlock and leaves the store as it was) and
// builds the rest valid, its Merkle root computed once over its own copy.
func (s *Store) Mine(txs [][]byte, now time.Time, nonce uint64) (*Block, Hash, error) {
	if _, err := encodedSize(txs); err != nil {
		return nil, Hash{}, fmt.Errorf("%w: %w", ErrInvalidBlock, err)
	}
	b := newBody(txs, now, nonce)
	s.mu.Lock()
	defer s.mu.Unlock()
	b.Header.PrevHash, b.Header.Height = s.tip, s.tipBody.Header.Height+1
	h := b.Header.Hash()
	if _, dup := s.index[h]; dup {
		return nil, Hash{}, fmt.Errorf("%w: %s", ErrDuplicateBlock, h)
	}
	s.linkLocked(stashed{block: b, hash: h}, s.tipID)
	return b, h, nil
}

// Height returns the current best height.
func (s *Store) Height() uint64 {
	return s.Tip().Header.Height
}

// OrphanCount returns how many offered blocks are stashed waiting for a
// parent.
func (s *Store) OrphanCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.orphanSet)
}
