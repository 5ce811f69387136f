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

// stashed is a validated block with its hash and stamp, as the orphan stash
// holds it.
type stashed struct {
	block *Block
	hash  Hash
	seen  seenKey
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
// The store keeps every connected block's header for ever and the bodies of
// the last BodyWindow connected blocks, plus the tip's: fork choice, duplicate
// detection and reorg depth read headers only, so its memory grows by one
// index entry per block rather than by one block.
type Store struct {
	mu      sync.RWMutex
	index   map[Hash]indexEntry
	bodies  []*Block // ring: the block connected order-th sits at order % BodyWindow
	newest  uint64   // order of the last connected block
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
	s.seq++
	return s.addLocked(stashed{block: b, hash: h, seen: seenKey{seq: s.seq}})
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
	oldTip := s.tip
	added, err := s.addLocked(stashed{block: b, hash: h, seen: seenKey{at: seen}})
	if err != nil || added.Stashed {
		return AddResult{Stashed: err == nil}, err
	}
	res := AddResult{Connected: 1 + len(added.Unstashed)}
	if s.tip != oldTip {
		res.TipChanged = true
		res.ReorgDepth = s.reorgDepthLocked(oldTip, s.tip)
	}
	return res, nil
}

// addLocked is Add and AddAt once the block is validated and stamped. A
// block Add stashed (seen.seq set) is stamped again when it connects: its
// arrival orders it among its siblings, its connect times it for the tie
// rule.
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
	if height := e.block.Header.Height; height != parent.header.Height+1 {
		return Added{}, fmt.Errorf("%w: %d after parent %d", ErrBadHeight, height, parent.header.Height)
	}
	s.linkLocked(e)
	var added Added
	waiting := s.unstashLocked(e.hash, nil)
	for len(waiting) > 0 {
		c := waiting[len(waiting)-1]
		waiting = waiting[:len(waiting)-1]
		// A dropped block's children find no parent and are dropped too.
		if parent, ok := s.index[c.block.Header.PrevHash]; !ok || c.block.Header.Height != parent.header.Height+1 {
			added.Dropped = append(added.Dropped, c.hash)
		} else {
			if c.seen.seq != 0 {
				s.seq++
				c.seen.seq = s.seq
			}
			s.linkLocked(c)
			added.Unstashed = append(added.Unstashed, c.hash)
		}
		waiting = s.unstashLocked(c.hash, waiting)
	}
	return added, nil
}

// linkLocked connects a block under its connected parent: it indexes the
// header, puts the body in the ring (over the body connected BodyWindow
// blocks ago) and advances the tip by the longest-chain/first-seen rule.
func (s *Store) linkLocked(e stashed) {
	hdr := &e.block.Header
	s.newest++
	s.index[e.hash] = indexEntry{header: *hdr, seen: e.seen, order: s.newest}
	s.bodies[s.newest%BodyWindow] = e.block
	if tipHeight := s.tipBody.Header.Height; hdr.Height > tipHeight ||
		(hdr.Height == tipHeight && seenBefore(e.seen, e.hash, s.index[s.tip].seen, s.tip)) {
		s.tip, s.tipBody = e.hash, e.block
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
		for j := i; j > 0 && seenBefore(waiting[j].seen, waiting[j].hash, waiting[j-1].seen, waiting[j-1].hash); j-- {
			waiting[j], waiting[j-1] = waiting[j-1], waiting[j]
		}
	}
	for i := len(waiting) - 1; i >= 0; i-- {
		delete(s.orphanSet, waiting[i].hash)
		stack = append(stack, waiting[i])
	}
	return stack
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

// OrphanCount returns how many offered blocks are stashed waiting for a
// parent.
func (s *Store) OrphanCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.orphanSet)
}
