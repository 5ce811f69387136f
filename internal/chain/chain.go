// Package chain is a minimal but real blockchain substrate: SHA-256 linked
// block headers with Merkle transaction roots, canonical binary encoding,
// a Poisson mining schedule, the block Tree that owns longest-chain,
// first-seen fork choice and reorg depth, and a thread-safe store built on
// it with an orphan stash. The live node (package node) gossips these
// blocks; the workload engine's simulated nodes (internal/workload) share
// one Tree and need no blocks.
//
// The store is sized for a node that runs for ever: it keeps every connected
// block as an int32 id, its connect order, under its hash, with its tree
// entry (pointer-free, about 80 bytes a block with the map's slack), and
// holds block bodies only for the last BodyWindow connected blocks and the
// tip. Relay and Perigee's observation window
// never read deeper, so a body past the window is dropped and Get answers
// nil for it exactly as for an unknown hash. What this gives up is archive
// sync: a peer more than BodyWindow blocks behind cannot fetch the chain
// from such a node one GETDATA at a time.
package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/perigee-net/perigee/internal/rng"
)

// Hash is a SHA-256 digest.
type Hash [32]byte

// String renders the first bytes of the hash for logs.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:8]) }

// Header is a block header. Headers chain by PrevHash and commit to the
// block body through TxRoot.
type Header struct {
	// Version is the header format version (currently 1).
	Version uint32
	// Height is the block's distance from genesis.
	Height uint64
	// PrevHash is the parent block's header hash.
	PrevHash Hash
	// TxRoot is the Merkle root of the transaction list.
	TxRoot Hash
	// TimeUnixMilli is the miner's wall-clock timestamp.
	TimeUnixMilli int64
	// Nonce disambiguates blocks mined by the same node at the same time.
	Nonce uint64
}

const headerSize = 4 + 8 + 32 + 32 + 8 + 8

// marshal appends the canonical little-endian encoding of the header.
func (h *Header) marshal(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, h.Version)
	buf = binary.LittleEndian.AppendUint64(buf, h.Height)
	buf = append(buf, h.PrevHash[:]...)
	buf = append(buf, h.TxRoot[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.TimeUnixMilli))
	buf = binary.LittleEndian.AppendUint64(buf, h.Nonce)
	return buf
}

func (h *Header) unmarshal(buf []byte) error {
	if len(buf) < headerSize {
		return fmt.Errorf("chain: header needs %d bytes, have %d", headerSize, len(buf))
	}
	h.Version = binary.LittleEndian.Uint32(buf[0:4])
	h.Height = binary.LittleEndian.Uint64(buf[4:12])
	copy(h.PrevHash[:], buf[12:44])
	copy(h.TxRoot[:], buf[44:76])
	h.TimeUnixMilli = int64(binary.LittleEndian.Uint64(buf[76:84]))
	h.Nonce = binary.LittleEndian.Uint64(buf[84:92])
	return nil
}

// Hash returns the header's SHA-256 digest, which identifies the block.
func (h *Header) Hash() Hash {
	return sha256.Sum256(h.marshal(make([]byte, 0, headerSize)))
}

// Block is a header plus its transaction payloads.
type Block struct {
	Header Header
	Txs    [][]byte
}

// Limits protecting decoders from hostile payloads.
const (
	// MaxTxs bounds transactions per block.
	MaxTxs = 1 << 16
	// MaxTxSize bounds a single transaction's bytes.
	MaxTxSize = 1 << 20
	// MaxBlockSize bounds a whole encoded block.
	MaxBlockSize = 4 << 20
)

// merkleStack is how many leaves MerkleRoot hashes without a heap buffer.
const merkleStack = 16

// MerkleRoot computes the Merkle root of the transaction list: leaves are
// SHA-256 of each transaction; odd nodes are paired with themselves; the
// root of an empty list is the zero hash. Up to merkleStack leaves live in
// a stack array, and each level is reduced in place over the one below.
func MerkleRoot(txs [][]byte) Hash {
	if len(txs) == 0 {
		return Hash{}
	}
	var stack [merkleStack]Hash
	level := stack[:0]
	if len(txs) > merkleStack {
		level = make([]Hash, 0, len(txs))
	}
	for _, tx := range txs {
		level = append(level, sha256.Sum256(tx))
	}
	var pair [64]byte
	for len(level) > 1 {
		half := (len(level) + 1) / 2
		for i := 0; i < half; i++ {
			l, r := 2*i, 2*i+1
			if r == len(level) {
				r = l
			}
			copy(pair[:32], level[l][:])
			copy(pair[32:], level[r][:])
			level[i] = sha256.Sum256(pair[:])
		}
		level = level[:half]
	}
	return level[0]
}

// Encode returns the canonical binary encoding of the block.
func (b *Block) Encode() ([]byte, error) { return b.AppendEncode(nil) }

// AppendEncode appends the canonical binary encoding of the block to buf,
// growing it once to the exact size; on error buf is returned unchanged.
func (b *Block) AppendEncode(buf []byte) ([]byte, error) {
	size, err := encodedSize(b.Txs)
	if err != nil {
		return buf, err
	}
	buf = slices.Grow(buf, size)
	buf = b.Header.marshal(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Txs)))
	for _, tx := range b.Txs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tx)))
		buf = append(buf, tx...)
	}
	return buf, nil
}

// encodedSize returns the length of the canonical encoding of a block with
// these transactions, or the first of the package's limits it breaks.
func encodedSize(txs [][]byte) (int, error) {
	if len(txs) > MaxTxs {
		return 0, fmt.Errorf("chain: %d transactions exceed limit %d", len(txs), MaxTxs)
	}
	size := headerSize + 4
	for _, tx := range txs {
		if len(tx) > MaxTxSize {
			return 0, fmt.Errorf("chain: transaction of %d bytes exceeds limit %d", len(tx), MaxTxSize)
		}
		size += 4 + len(tx)
	}
	if size > MaxBlockSize {
		return 0, fmt.Errorf("chain: block of %d bytes exceeds limit %d", size, MaxBlockSize)
	}
	return size, nil
}

// DecodeBlock parses a canonical block encoding.
func DecodeBlock(buf []byte) (*Block, error) {
	b := new(Block)
	if err := b.UnmarshalBinary(buf); err != nil {
		return nil, err
	}
	return b, nil
}

// UnmarshalBinary parses a canonical block encoding into b, which then
// shares no memory with buf. It allocates the transaction list and one
// body buffer and nothing for b itself, so a caller can decode into a Block
// inside a value of its own; on error b is left as it was.
func (b *Block) UnmarshalBinary(buf []byte) error {
	if len(buf) > MaxBlockSize {
		return fmt.Errorf("chain: encoded block of %d bytes exceeds limit %d", len(buf), MaxBlockSize)
	}
	var h Header
	if err := h.unmarshal(buf); err != nil {
		return err
	}
	rest := buf[headerSize:]
	if len(rest) < 4 {
		return errors.New("chain: truncated transaction count")
	}
	count := binary.LittleEndian.Uint32(rest[:4])
	if count > MaxTxs {
		return fmt.Errorf("chain: transaction count %d exceeds limit %d", count, MaxTxs)
	}
	rest = rest[4:]
	// Walk the lengths first, allocating nothing, so a payload that claims
	// more transactions than it carries fails before anything is reserved.
	walk := rest
	for i := uint32(0); i < count; i++ {
		if len(walk) < 4 {
			return errors.New("chain: truncated transaction length")
		}
		txLen := binary.LittleEndian.Uint32(walk[:4])
		walk = walk[4:]
		if txLen > MaxTxSize {
			return fmt.Errorf("chain: transaction of %d bytes exceeds limit %d", txLen, MaxTxSize)
		}
		if uint32(len(walk)) < txLen {
			return errors.New("chain: truncated transaction body")
		}
		walk = walk[txLen:]
	}
	if len(walk) != 0 {
		return fmt.Errorf("chain: %d trailing bytes after block", len(walk))
	}
	txs := make([][]byte, count)
	for i := range txs {
		txLen := binary.LittleEndian.Uint32(rest[:4])
		txs[i] = rest[4 : 4+txLen]
		rest = rest[4+txLen:]
	}
	detachTxs(txs) // the block must not share memory with buf
	b.Header, b.Txs = h, txs
	return nil
}

// detachTxs replaces every transaction with a copy in one buffer of their
// total length. Each copy's capacity ends at its length, so an append to
// one transaction cannot overwrite the next; an empty one becomes nil.
func detachTxs(txs [][]byte) {
	total := 0
	for _, tx := range txs {
		total += len(tx)
	}
	body := make([]byte, total)
	for i, tx := range txs {
		if len(tx) == 0 {
			txs[i] = nil
			continue
		}
		n := copy(body, tx)
		txs[i] = body[:n:n]
		body = body[n:]
	}
}

// CheckBlock verifies a block's internal consistency: version, the limits
// that Encode and DecodeBlock enforce (transaction count, transaction size,
// encoded size), and the Merkle commitment. The limits are arithmetic and
// are checked first, so a block no peer could be sent is refused unhashed.
func CheckBlock(b *Block) error {
	if b == nil {
		return errors.New("chain: nil block")
	}
	if b.Header.Version != 1 {
		return fmt.Errorf("chain: unsupported block version %d", b.Header.Version)
	}
	if _, err := encodedSize(b.Txs); err != nil {
		return err
	}
	if got, want := MerkleRoot(b.Txs), b.Header.TxRoot; got != want {
		return fmt.Errorf("chain: merkle root mismatch: body %s, header %s", got, want)
	}
	return nil
}

// NewGenesis builds the deterministic genesis block for a network tag.
func NewGenesis(tag string) *Block {
	txs := [][]byte{[]byte("genesis:" + tag)}
	return &Block{
		Header: Header{
			Version: 1,
			Height:  0,
			TxRoot:  MerkleRoot(txs),
		},
		Txs: txs,
	}
}

// NewBlock assembles a child of prev carrying the given transactions.
func NewBlock(prev *Block, txs [][]byte, now time.Time, nonce uint64) *Block {
	b := newBody(txs, now, nonce)
	b.Header.PrevHash, b.Header.Height = prev.Header.Hash(), prev.Header.Height+1
	return b
}

// newBody assembles a block carrying a copy of the transactions, its header
// complete but for the parent's hash and the height. The Merkle root is
// taken over the copy, the body the block keeps.
func newBody(txs [][]byte, now time.Time, nonce uint64) *Block {
	cp := append(make([][]byte, 0, len(txs)), txs...)
	detachTxs(cp)
	return &Block{
		Header: Header{
			Version:       1,
			TxRoot:        MerkleRoot(cp),
			TimeUnixMilli: now.UnixMilli(),
			Nonce:         nonce,
		},
		Txs: cp,
	}
}

// NextMiningInterval draws an exponential interarrival time with the given
// mean, the memoryless block production process of §2.1.
func NextMiningInterval(r *rng.RNG, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(r.ExpFloat64() * float64(mean))
}
