package chain

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/perigee-net/perigee/internal/rng"
)

func TestHeaderHashDeterministic(t *testing.T) {
	h := Header{Version: 1, Height: 5, Nonce: 42, TimeUnixMilli: 1000}
	if h.Hash() != h.Hash() {
		t.Fatal("hash not deterministic")
	}
	h2 := h
	h2.Nonce = 43
	if h.Hash() == h2.Hash() {
		t.Fatal("different headers collided")
	}
}

func TestMerkleRoot(t *testing.T) {
	if MerkleRoot(nil) != (Hash{}) {
		t.Fatal("empty merkle root should be zero")
	}
	a := MerkleRoot([][]byte{[]byte("a")})
	b := MerkleRoot([][]byte{[]byte("b")})
	if a == b {
		t.Fatal("distinct single-tx roots collided")
	}
	ab := MerkleRoot([][]byte{[]byte("a"), []byte("b")})
	ba := MerkleRoot([][]byte{[]byte("b"), []byte("a")})
	if ab == ba {
		t.Fatal("merkle root must be order sensitive")
	}
	// Odd counts pair the last leaf with itself and must still be stable.
	odd := MerkleRoot([][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if odd == ab {
		t.Fatal("3-leaf root equals 2-leaf root")
	}
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	genesis := NewGenesis("test")
	b := NewBlock(genesis, [][]byte{[]byte("tx1"), []byte("tx22"), {}}, time.UnixMilli(123456), 7)
	buf, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBlock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != b.Header {
		t.Fatalf("header mismatch: %+v vs %+v", got.Header, b.Header)
	}
	if len(got.Txs) != 3 || string(got.Txs[0]) != "tx1" || string(got.Txs[1]) != "tx22" || len(got.Txs[2]) != 0 {
		t.Fatalf("txs mismatch: %q", got.Txs)
	}
	if got.Header.Hash() != b.Header.Hash() {
		t.Fatal("hash changed across roundtrip")
	}
}

// Property: encode/decode is the identity on arbitrary blocks.
func TestBlockRoundTripProperty(t *testing.T) {
	check := func(height uint64, nonce uint64, ts int64, txs [][]byte) bool {
		if len(txs) > 64 {
			txs = txs[:64]
		}
		for i := range txs {
			if len(txs[i]) > 1024 {
				txs[i] = txs[i][:1024]
			}
		}
		b := &Block{
			Header: Header{
				Version:       1,
				Height:        height,
				TxRoot:        MerkleRoot(txs),
				TimeUnixMilli: ts,
				Nonce:         nonce,
			},
			Txs: txs,
		}
		buf, err := b.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeBlock(buf)
		if err != nil {
			return false
		}
		if got.Header != b.Header || len(got.Txs) != len(b.Txs) {
			return false
		}
		for i := range txs {
			if string(got.Txs[i]) != string(txs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBlockRejectsCorruption(t *testing.T) {
	b := NewBlock(NewGenesis("x"), [][]byte{[]byte("tx")}, time.Now(), 1)
	buf, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBlock(buf[:10]); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := DecodeBlock(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated tx accepted")
	}
	if _, err := DecodeBlock(append(buf, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestCheckBlock(t *testing.T) {
	good := NewBlock(NewGenesis("x"), [][]byte{[]byte("tx")}, time.Now(), 1)
	if err := CheckBlock(good); err != nil {
		t.Fatal(err)
	}
	if err := CheckBlock(nil); err == nil {
		t.Fatal("nil block accepted")
	}
	bad := *good
	bad.Header.Version = 2
	if err := CheckBlock(&bad); err == nil {
		t.Fatal("bad version accepted")
	}
	tampered := *good
	tampered.Txs = [][]byte{[]byte("other")}
	if err := CheckBlock(&tampered); err == nil {
		t.Fatal("merkle mismatch accepted")
	}
}

// CheckBlock refuses every block Encode would refuse, and says so before it
// compares the Merkle root: each block here also carries a wrong root.
func TestCheckBlockEnforcesEncodeLimits(t *testing.T) {
	nTxs := MaxBlockSize/MaxTxSize + 1
	full := make([][]byte, nTxs)
	for i := range full {
		full[i] = make([]byte, MaxTxSize-8)
	}
	for name, txs := range map[string][][]byte{
		"count":      make([][]byte, MaxTxs+1),
		"tx size":    {make([]byte, MaxTxSize+1)},
		"block size": full,
	} {
		b := &Block{Header: Header{Version: 1, TxRoot: Hash{1}}, Txs: txs}
		if _, err := b.Encode(); err == nil {
			t.Fatalf("%s: Encode accepts the block; the case tests nothing", name)
		}
		err := CheckBlock(b)
		if err == nil || strings.Contains(err.Error(), "merkle") {
			t.Fatalf("%s: CheckBlock = %v, want a limit error before the root is checked", name, err)
		}
	}
}

func TestEncodeLimits(t *testing.T) {
	huge := &Block{Header: Header{Version: 1}, Txs: make([][]byte, MaxTxs+1)}
	if _, err := huge.Encode(); err == nil {
		t.Fatal("too many txs accepted")
	}
	big := &Block{Header: Header{Version: 1}, Txs: [][]byte{make([]byte, MaxTxSize+1)}}
	if _, err := big.Encode(); err == nil {
		t.Fatal("oversized tx accepted")
	}
}

// TestAppendEncode pins the canonical encoding to the bytes Encode has
// always produced, and AppendEncode to Encode behind whatever the buffer
// already holds.
func TestAppendEncode(t *testing.T) {
	const golden = "01000000010000000000000099ff512f37e177fa31140a086317e0618876eca4d536fac610a4ec0f4291065c" +
		"833a0fc9bf0a70aa46482120d990e7366dae3c47f08d23acb49246314d10c1be0068e5cf8b0100002a00000000000000" +
		"030000000400000074782d31000000000400000074782d32"
	b := NewBlock(NewGenesis("fuzz-net"), [][]byte{[]byte("tx-1"), nil, []byte("tx-2")}, time.Unix(1700000000, 0), 42)
	enc, err := b.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(enc); got != golden {
		t.Fatalf("encoding moved:\n got  %s\n want %s", got, golden)
	}
	prefix := []byte("frame header")
	out, err := b.AppendEncode(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], enc) {
		t.Fatal("AppendEncode behind a prefix differs from prefix + Encode")
	}
	big := &Block{Header: Header{Version: 1}, Txs: [][]byte{[]byte("ok"), make([]byte, MaxTxSize+1)}}
	if out, err := big.AppendEncode(prefix); err == nil || !bytes.Equal(out, prefix) {
		t.Fatalf("a block that fails to encode returned %d bytes, error %v; want the buffer unchanged", len(out), err)
	}
}

func TestNewGenesisDeterministic(t *testing.T) {
	a := NewGenesis("net1")
	b := NewGenesis("net1")
	c := NewGenesis("net2")
	if a.Header.Hash() != b.Header.Hash() {
		t.Fatal("same tag should give same genesis")
	}
	if a.Header.Hash() == c.Header.Hash() {
		t.Fatal("different tags should differ")
	}
	if err := CheckBlock(a); err != nil {
		t.Fatal(err)
	}
}

func TestNewBlockCopiesTxs(t *testing.T) {
	tx := []byte("mutate-me")
	b := NewBlock(NewGenesis("x"), [][]byte{tx}, time.Now(), 0)
	tx[0] = 'X'
	if string(b.Txs[0]) != "mutate-me" {
		t.Fatal("block aliases caller's tx slice")
	}
}

func TestNextMiningInterval(t *testing.T) {
	r := rng.New(1)
	mean := 100 * time.Millisecond
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := NextMiningInterval(r, mean)
		if d < 0 {
			t.Fatal("negative interval")
		}
		sum += d
	}
	got := sum / n
	if got < 90*time.Millisecond || got > 110*time.Millisecond {
		t.Fatalf("mean interval %v too far from %v", got, mean)
	}
	if NextMiningInterval(r, 0) != 0 {
		t.Fatal("zero mean should give zero interval")
	}
}

func TestStoreForkChoice(t *testing.T) {
	g := NewGenesis("store")
	s, err := NewStore(g)
	if err != nil {
		t.Fatal(err)
	}
	b1 := NewBlock(g, [][]byte{[]byte("b1")}, time.UnixMilli(1), 1)
	b2 := NewBlock(b1, [][]byte{[]byte("b2")}, time.UnixMilli(2), 2)
	fork1 := NewBlock(g, [][]byte{[]byte("f1")}, time.UnixMilli(3), 3)
	for _, b := range []*Block{b1, b2, fork1} {
		if _, err := s.Add(b, b.Header.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	if s.Height() != 2 {
		t.Fatalf("height = %d, want 2", s.Height())
	}
	if s.Tip().Header.Hash() != b2.Header.Hash() {
		t.Fatal("tip should be the longest chain")
	}
	// Extending the fork to the same height must not displace the tip.
	fork2 := NewBlock(fork1, [][]byte{[]byte("f2")}, time.UnixMilli(4), 4)
	if _, err := s.Add(fork2, fork2.Header.Hash()); err != nil {
		t.Fatal(err)
	}
	if s.Tip().Header.Hash() != b2.Header.Hash() {
		t.Fatal("equal-height fork displaced first-seen tip")
	}
	// A longer fork wins.
	fork3 := NewBlock(fork2, [][]byte{[]byte("f3")}, time.UnixMilli(5), 5)
	if _, err := s.Add(fork3, fork3.Header.Hash()); err != nil {
		t.Fatal(err)
	}
	if s.Tip().Header.Hash() != fork3.Header.Hash() {
		t.Fatal("longer fork did not win")
	}
	if len(s.index) != 6 {
		t.Fatalf("store has %d blocks, want 6", len(s.index))
	}
}

func TestStoreErrors(t *testing.T) {
	g := NewGenesis("store2")
	s, err := NewStore(g)
	if err != nil {
		t.Fatal(err)
	}
	b1 := NewBlock(g, nil, time.UnixMilli(1), 1)
	if _, err := s.Add(b1, b1.Header.Hash()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(b1, b1.Header.Hash()); !errors.Is(err, ErrDuplicateBlock) {
		t.Fatalf("duplicate: %v", err)
	}
	missing := NewBlock(b1, nil, time.UnixMilli(2), 2)
	orphan := NewBlock(missing, nil, time.UnixMilli(2), 2)
	if added, err := s.Add(orphan, orphan.Header.Hash()); err != nil || !added.Stashed {
		t.Fatalf("orphan: %+v, %v", added, err)
	}
	if added, err := s.Add(missing, missing.Header.Hash()); err != nil || len(added.Unstashed) != 1 || added.Unstashed[0] != orphan.Header.Hash() {
		t.Fatalf("orphan's parent: %+v, %v", added, err)
	}
	badHeight := NewBlock(b1, nil, time.UnixMilli(3), 3)
	badHeight.Header.Height = 9
	if _, err := s.Add(badHeight, badHeight.Header.Hash()); !errors.Is(err, ErrBadHeight) {
		t.Fatalf("bad height: %v", err)
	}
	if !s.Has(b1.Header.Hash()) {
		t.Fatal("Has lost a block")
	}
	if s.Get(Hash{1}) != nil {
		t.Fatal("Get invented a block")
	}
	if !s.Has(g.Header.Hash()) {
		t.Fatal("Has lost the genesis block")
	}
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(nil); err == nil {
		t.Fatal("nil genesis accepted")
	}
	nonZero := NewBlock(NewGenesis("x"), nil, time.Now(), 0)
	if _, err := NewStore(nonZero); err == nil {
		t.Fatal("non-zero-height genesis accepted")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	g := NewGenesis("conc")
	s, err := NewStore(g)
	if err != nil {
		t.Fatal(err)
	}
	prev := g
	blocks := make([]*Block, 50)
	for i := range blocks {
		blocks[i] = NewBlock(prev, nil, time.UnixMilli(int64(i)), uint64(i))
		prev = blocks[i]
	}
	done := make(chan error, 2)
	go func() {
		for _, b := range blocks {
			if _, err := s.Add(b, b.Header.Hash()); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 1000; i++ {
			_ = s.Height()
			_ = s.Has(g.Header.Hash())
			_ = s.Tip()
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s.Height() != 50 {
		t.Fatalf("height = %d, want 50", s.Height())
	}
}

// merkleRootReference is the level-by-level Merkle root that MerkleRoot's
// in-place reduction replaced: a fresh slice per level, the last node of
// an odd level paired with itself.
func merkleRootReference(txs [][]byte) Hash {
	if len(txs) == 0 {
		return Hash{}
	}
	level := make([]Hash, len(txs))
	for i, tx := range txs {
		level[i] = sha256.Sum256(tx)
	}
	for len(level) > 1 {
		next := make([]Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			j := i + 1
			if j == len(level) {
				j = i
			}
			var buf [64]byte
			copy(buf[:32], level[i][:])
			copy(buf[32:], level[j][:])
			next = append(next, sha256.Sum256(buf[:]))
		}
		level = next
	}
	return level[0]
}

// TestMerkleRootMatchesReference holds MerkleRoot to the level-by-level
// reference for 0–40 transactions, which crosses the stack array's size
// and meets an odd level at every depth, and for random transaction sizes.
func TestMerkleRootMatchesReference(t *testing.T) {
	for n := 0; n <= 40; n++ {
		txs := make([][]byte, n)
		for i := range txs {
			txs[i] = []byte(fmt.Sprintf("tx-%d-of-%d", i, n))
		}
		if got, want := MerkleRoot(txs), merkleRootReference(txs); got != want {
			t.Fatalf("%d transactions: root %s, reference %s", n, got, want)
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 300; trial++ {
		txs := make([][]byte, r.IntN(70))
		for i := range txs {
			txs[i] = make([]byte, r.IntN(300))
			for j := range txs[i] {
				txs[i][j] = byte(r.Uint32())
			}
		}
		if got, want := MerkleRoot(txs), merkleRootReference(txs); got != want {
			t.Fatalf("trial %d, %d transactions: root %s, reference %s", trial, len(txs), got, want)
		}
	}
}

// TestRelayPathAllocations pins what a relayed block costs the chain
// package: nothing for a Merkle root of up to 16 transactions, one buffer
// above that, and three allocations (the block, its transaction list and
// one body buffer) to decode a four-transaction block, two of them when the
// block is decoded into memory the caller already has.
func TestRelayPathAllocations(t *testing.T) {
	txs := make([][]byte, 17)
	for i := range txs {
		txs[i] = bytes.Repeat([]byte{byte(i)}, 256)
	}
	if a := testing.AllocsPerRun(50, func() { MerkleRoot(txs[:16]) }); a != 0 {
		t.Errorf("MerkleRoot of 16 transactions allocates %.1f times, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { MerkleRoot(txs) }); a != 1 {
		t.Errorf("MerkleRoot of 17 transactions allocates %.1f times, want 1", a)
	}
	enc, err := NewBlock(NewGenesis("x"), txs[:4], time.UnixMilli(1), 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var kept *Block // a decoded block the caller keeps lives on the heap
	if a := testing.AllocsPerRun(50, func() { kept, _ = DecodeBlock(enc) }); a != 3 {
		t.Errorf("DecodeBlock of four transactions allocates %.1f times, want 3", a)
	}
	if a := testing.AllocsPerRun(50, func() { _ = kept.UnmarshalBinary(enc) }); a != 2 {
		t.Errorf("UnmarshalBinary of four transactions allocates %.1f times, want 2", a)
	}
}

// TestDecodeBlockForgedCountReservesNothing: a payload that claims MaxTxs
// transactions and carries none fails as it always has, without first
// reserving room for 65,536 of them (1.5 MB a frame before the fix).
func TestDecodeBlockForgedCountReservesNothing(t *testing.T) {
	hdr := Header{Version: 1, Height: 1}
	forged := binary.LittleEndian.AppendUint32(hdr.marshal(nil), MaxTxs)
	if len(forged) != 96 {
		t.Fatalf("forged payload is %d bytes, want 96", len(forged))
	}
	if _, err := DecodeBlock(forged); err == nil || err.Error() != "chain: truncated transaction length" {
		t.Fatalf("forged count: error %v, want chain: truncated transaction length", err)
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		_, _ = DecodeBlock(forged)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 1024 {
		t.Fatalf("a forged-count payload allocates %d bytes per call, want under 1 KB", per)
	}
}

// FuzzDecodeBlockCanonical: every payload DecodeBlock accepts re-encodes to
// the same bytes; the decoded block owns its memory, so overwriting the
// input changes neither the block nor CheckBlock's verdict; and an append
// to one transaction leaves the next intact.
func FuzzDecodeBlockCanonical(f *testing.F) {
	genesis := NewGenesis("fuzz")
	seed := func(txs ...[]byte) {
		enc, err := NewBlock(genesis, txs, time.UnixMilli(1700000000000), 7).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	numbered := func(n int) [][]byte {
		txs := make([][]byte, n)
		for i := range txs {
			txs[i] = []byte(fmt.Sprintf("tx-%02d", i))
		}
		return txs
	}
	seed()
	seed(numbered(1)...)
	seed(numbered(4)...)
	seed(numbered(17)...)
	seed(nil, []byte("x"), nil)
	seed(bytes.Repeat([]byte{0xA5}, MaxTxSize), []byte("after"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		b, err := DecodeBlock(in)
		if err != nil {
			return
		}
		enc, err := b.Encode()
		if err != nil {
			t.Fatalf("a decoded block does not encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("a decoded block re-encodes to different bytes")
		}
		header, txs := b.Header, make([][]byte, len(b.Txs))
		for i, tx := range b.Txs {
			txs[i] = bytes.Clone(tx)
		}
		verdict := fmt.Sprint(CheckBlock(b))
		for i := range in {
			in[i] = ^in[i]
		}
		if b.Header != header {
			t.Fatal("overwriting the input moved the decoded header")
		}
		for i := range txs {
			if !bytes.Equal(b.Txs[i], txs[i]) {
				t.Fatalf("overwriting the input changed transaction %d", i)
			}
		}
		if got := fmt.Sprint(CheckBlock(b)); got != verdict {
			t.Fatalf("CheckBlock said %q before the input was overwritten, %q after", verdict, got)
		}
		for i := 0; i+1 < len(b.Txs); i++ {
			_ = append(b.Txs[i], 0xFF, 0xFE, 0xFD, 0xFC)
			if !bytes.Equal(b.Txs[i+1], txs[i+1]) {
				t.Fatalf("an append to transaction %d overwrote transaction %d", i, i+1)
			}
		}
	})
}
