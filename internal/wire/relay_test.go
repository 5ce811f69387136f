package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
)

// referenceFrame frames a payload the way the protocol always has: the
// header, then the payload, the checksum hashed from the payload.
func referenceFrame(t MsgType, payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, Magic)
	frame = append(frame, byte(t))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	sum := sha256.Sum256(payload)
	return append(append(frame, sum[:4]...), payload...)
}

// fuzzBlock builds a block from fuzz bytes: header fields from the first
// bytes, then transactions whose lengths each take one byte.
func fuzzBlock(data []byte) *chain.Block {
	var seed [24]byte
	copy(seed[:], data)
	data = data[min(len(data), len(seed)):]
	var txs [][]byte
	for len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		txs = append(txs, data[1:1+n])
		data = data[1+n:]
	}
	prev := chain.NewGenesis(string(seed[:4]))
	prev.Header.Height = binary.LittleEndian.Uint64(seed[4:12]) >> 1
	return chain.NewBlock(prev, txs, time.UnixMilli(int64(binary.LittleEndian.Uint64(seed[12:20]))), uint64(binary.LittleEndian.Uint32(seed[20:24])))
}

// fuzzHashes cuts fuzz bytes into hashes, at most MaxInvHashes of them.
func fuzzHashes(data []byte) []chain.Hash {
	hashes := make([]chain.Hash, 0, min(len(data)/32, MaxInvHashes))
	for len(data) >= 32 && len(hashes) < MaxInvHashes {
		hashes = append(hashes, chain.Hash(data[:32]))
		data = data[32:]
	}
	return hashes
}

// FuzzFrameMatchesReference holds AppendFrame to the reference framing
// (encode, then SHA-256 the payload) on random blocks, INVs and GETDATAs,
// appended behind a prefix that must survive. A BLOCK read back through a
// Reader and sent on as the decoded message, on the checksum the Reader
// verified, must frame to the very same bytes without hashing again.
func FuzzFrameMatchesReference(f *testing.F) {
	f.Add(byte(0), []byte{})
	f.Add(byte(0), append(bytes.Repeat([]byte{7}, 24), 3, 'a', 'b', 'c', 0, 5, 1, 2, 3, 4, 5))
	f.Add(byte(1), bytes.Repeat([]byte{0xAB}, 32))
	f.Add(byte(2), bytes.Repeat([]byte{0x01, 0x02}, 80))
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		var m Message
		var payload []byte
		switch kind % 3 {
		case 0:
			b := fuzzBlock(data)
			enc, err := b.Encode()
			if err != nil {
				t.Fatal(err)
			}
			m, payload = &Block{Block: b}, enc
		case 1:
			hashes := fuzzHashes(data)
			m, payload = &Inv{Hashes: hashes}, referenceHashes(hashes)
		default:
			hashes := fuzzHashes(data)
			m, payload = &GetData{Hashes: hashes}, referenceHashes(hashes)
		}
		want := referenceFrame(m.Type(), payload)
		prefix := []byte("queued")
		got, err := AppendFrame(append([]byte(nil), prefix...), m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%v frame\n %x\nwant\n %x", m.Type(), got[len(prefix):], want)
		}
		if m.Type() != MsgBlock {
			return
		}
		read, err := NewReader(bytes.NewReader(want)).Read()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := verifiedSum(read); !ok {
			t.Fatal("a decoded block would be hashed again")
		}
		again, err := AppendFrame(prefix, read)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again[len(prefix):], want) {
			t.Fatalf("relayed block frame\n %x\nwant\n %x", again[len(prefix):], want)
		}
	})
}

func referenceHashes(hashes []chain.Hash) []byte {
	payload := binary.LittleEndian.AppendUint32(nil, uint32(len(hashes)))
	for _, h := range hashes {
		payload = append(payload, h[:]...)
	}
	return payload
}

// TestDecodedBlockFramesOnItsChecksum: a BLOCK a Reader decoded keeps the
// checksum the Reader verified, and AppendFrame writes that checksum rather
// than hash the payload again for as long as the message carries the block
// it decoded; pointed at another block, the message is hashed afresh. A
// BLOCK built by hand is always hashed.
func TestDecodedBlockFramesOnItsChecksum(t *testing.T) {
	blk := blockOfSize(t, 1024)
	want := frame(t, &Block{Block: blk})
	m, err := NewReader(bytes.NewReader(want)).Read()
	if err != nil {
		t.Fatal(err)
	}
	decoded := m.(*Block)
	if decoded.sum != [4]byte(want[9:13]) {
		t.Fatalf("decoded block keeps checksum %x, want the frame's %x", decoded.sum, want[9:13])
	}
	// Spoil the kept checksum: a frame that carries the spoiled one was not
	// hashed again.
	decoded.sum[0] ^= 0xFF
	got, err := AppendFrame(nil, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if got[9] != want[9]^0xFF || !bytes.Equal(got[10:], want[10:]) {
		t.Fatalf("decoded block framed as\n %x\nwant the kept checksum on\n %x", got, want)
	}
	other := *decoded.Block
	decoded.Block = &other
	if got, err = AppendFrame(nil, decoded); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("a decoded message pointed at another block framed as\n %x (%v)\nwant it hashed afresh\n %x", got, err, want)
	}
	byHand := &Block{Block: blk, sum: [4]byte{1, 2, 3, 4}}
	if got, err = AppendFrame(nil, byHand); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("a block built by hand framed as\n %x (%v)\nwant it hashed\n %x", got, err, want)
	}
}
