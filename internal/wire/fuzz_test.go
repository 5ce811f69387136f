package wire

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
)

// fuzzSeedMessages is one well-formed instance of every message type —
// the in-code half of the seed corpus (testdata/fuzz/FuzzDecode holds
// the committed framed bytes of the same set plus malformed variants).
func fuzzSeedMessages() []Message {
	genesis := chain.NewGenesis("fuzz-net")
	block := chain.NewBlock(genesis, [][]byte{[]byte("tx-1"), nil, []byte("tx-2")},
		time.Unix(1700000000, 0), 42)
	return []Message{
		&Version{Protocol: ProtocolVersion, NodeID: 0xDEADBEEF, ListenAddr: "127.0.0.1:9000", Nonce: 7},
		&Verack{},
		&Ping{Nonce: 1},
		&Pong{Nonce: 2},
		&Inv{Hashes: []chain.Hash{genesis.Header.Hash(), block.Header.Hash()}},
		&GetData{Hashes: []chain.Hash{block.Header.Hash()}},
		&Block{Block: block},
		&Addr{Addrs: []NetAddr{{Addr: "10.0.0.1:8333", AgeSec: 0}, {Addr: "[::1]:8334", AgeSec: 120}}},
		&GetAddr{},
	}
}

// frame encodes a message into its framed wire bytes.
func frame(tb testing.TB, m Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		tb.Fatalf("framing %v: %v", m.Type(), err)
	}
	return buf.Bytes()
}

// FuzzDecode feeds arbitrary byte streams to the frame reader: decoding
// must never panic, and every stream that decodes must survive an
// encode→decode round trip bit-for-bit (decode(encode(m)) == m at the
// wire level).
func FuzzDecode(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		f.Add(frame(f, m))
	}
	// Malformed variants: short header, bad magic, truncated payload,
	// corrupted checksum.
	valid := frame(f, &Ping{Nonce: 99})
	f.Add(valid[:5])
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xFF
	f.Add(bad)
	f.Add(valid[:len(valid)-3])
	flip := append([]byte(nil), valid...)
	flip[len(flip)-1] ^= 0x01
	f.Add(flip)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		if err != nil {
			return // malformed input rejected without panicking — fine
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("re-encoding decoded %v: %v", m.Type(), err)
		}
		m2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding encoded %v: %v", m.Type(), err)
		}
		if m2.Type() != m.Type() {
			t.Fatalf("type changed across round trip: %v -> %v", m.Type(), m2.Type())
		}
		var buf2 bytes.Buffer
		if err := Write(&buf2, m2); err != nil {
			t.Fatalf("re-encoding %v: %v", m2.Type(), err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%v frame not stable across round trip:\n %x\n %x", m.Type(), buf.Bytes(), buf2.Bytes())
		}
	})
}

// decodePayload decodes payload p of type t as a fresh Reader does once the
// frame's checksum has passed.
func decodePayload(t MsgType, p []byte) (Message, error) {
	sum := sha256.Sum256(p)
	return new(Reader).decode(t, p, [4]byte(sum[:4]))
}

// FuzzDecodePayload drives the per-type payload decoders directly with
// arbitrary (type, payload) pairs — the surface a hostile peer controls
// after the frame header passes — asserting no panic and payload-level
// round-trip stability.
func FuzzDecodePayload(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		payload, err := m.encodePayload(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(m.Type()), payload)
	}
	f.Add(byte(0), []byte{})
	f.Add(byte(255), []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		m, err := decodePayload(MsgType(typ), payload)
		if err != nil {
			return
		}
		enc, err := m.encodePayload(nil)
		if err != nil {
			t.Fatalf("re-encoding decoded %v: %v", m.Type(), err)
		}
		m2, err := decodePayload(m.Type(), enc)
		if err != nil {
			t.Fatalf("re-decoding %v payload: %v", m.Type(), err)
		}
		enc2, err := m2.encodePayload(nil)
		if err != nil {
			t.Fatalf("re-encoding %v: %v", m2.Type(), err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%v payload not stable across round trip:\n %x\n %x", m.Type(), enc, enc2)
		}
	})
}

// TestDecodeEncodeIdentity pins decode(encode(m)) == m at the frame
// level for one instance of every message type (the deterministic
// counterpart of the fuzz property).
func TestDecodeEncodeIdentity(t *testing.T) {
	for _, m := range fuzzSeedMessages() {
		framed := frame(t, m)
		got, err := Read(bytes.NewReader(framed))
		if err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
		if !bytes.Equal(frame(t, got), framed) {
			t.Errorf("%v: decode(encode(m)) differs from m", m.Type())
		}
	}
}
