package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"testing"
	"testing/iotest"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
)

// goldenFrames are the framed bytes of fuzzSeedMessages, in order, as the
// protocol has always produced them: the frame format is pinned here, not
// only round-tripped.
var goldenFrames = []string{
	"494752500124000000f76c493201000000efbeadde000000000e003132372e302e302e313a393030300700000000000000",
	"494752500200000000e3b0c442",
	"4947525003080000007c9fa1360100000000000000",
	"494752500408000000d86e81120200000000000000",
	"49475250054400000078d83e0f0200000099ff512f37e177fa31140a086317e0618876eca4d536fac610a4ec0f4291065ceb6e1767737d1a2cf56c36093942094bc567810d1a37c19a492119cebe8ec3a4",
	"4947525006240000008eb1938401000000eb6e1767737d1a2cf56c36093942094bc567810d1a37c19a492119cebe8ec3a4",
	"49475250077400000003f3564401000000010000000000000099ff512f37e177fa31140a086317e0618876eca4d536fac610a4ec0f4291065c833a0fc9bf0a70aa46482120d990e7366dae3c47f08d23acb49246314d10c1be0068e5cf8b0100002a00000000000000030000000400000074782d31000000000400000074782d32",
	"4947525008270000006362a662020000000d0031302e302e302e313a38333333000000000a005b3a3a315d3a3833333478000000",
	"494752500900000000e3b0c442",
}

func TestGoldenFrames(t *testing.T) {
	msgs := fuzzSeedMessages()
	if len(msgs) != len(goldenFrames) {
		t.Fatalf("%d seed messages, %d golden frames", len(msgs), len(goldenFrames))
	}
	for i, m := range msgs {
		if got := hex.EncodeToString(frame(t, m)); got != goldenFrames[i] {
			t.Errorf("%v frame moved:\n got  %s\n want %s", m.Type(), got, goldenFrames[i])
		}
	}
}

// countingWriter records the size of every Write it receives.
type countingWriter struct {
	bytes.Buffer
	writes []int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

func TestWriteIsOneWrite(t *testing.T) {
	for _, m := range fuzzSeedMessages() {
		var w countingWriter
		if err := Write(&w, m); err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
		if len(w.writes) != 1 || w.writes[0] != w.Len() {
			t.Errorf("%v: Write calls %v for a %d-byte frame, want one", m.Type(), w.writes, w.Len())
		}
	}
}

func TestAppendFrameKeepsPrefix(t *testing.T) {
	prefix := []byte("already queued")
	buf := append(make([]byte, 0, 256), prefix...)
	var want []byte
	for _, m := range fuzzSeedMessages() {
		var err error
		if buf, err = AppendFrame(buf, m); err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
		want = append(want, frame(t, m)...)
	}
	if !bytes.HasPrefix(buf, prefix) {
		t.Fatalf("prefix overwritten: %q", buf[:len(prefix)])
	}
	if !bytes.Equal(buf[len(prefix):], want) {
		t.Fatal("appended frames differ from the frames written one by one")
	}

	// An encode error leaves the buffer as it was, whether the message
	// fails before writing anything or after writing part of its payload.
	before := append([]byte(nil), buf...)
	bad := []Message{
		&Inv{Hashes: make([]chain.Hash, MaxInvHashes+1)},
		&Block{},
		&Addr{Addrs: []NetAddr{{Addr: "1.2.3.4:1"}, {Addr: string(make([]byte, MaxAddrLen+1))}}},
	}
	for _, m := range bad {
		got, err := AppendFrame(buf, m)
		if err == nil {
			t.Fatalf("%v: encoded", m.Type())
		}
		if !bytes.Equal(got, before) {
			t.Fatalf("%v: buffer is %d bytes after a failed append, was %d", m.Type(), len(got), len(before))
		}
	}
}

// blockOfSize builds a valid block whose encoding is exactly size bytes.
func blockOfSize(t *testing.T, size int) *chain.Block {
	t.Helper()
	const overhead = 92 + 4 // header, transaction count
	var txs [][]byte
	for left := size - overhead; left > 0; {
		n := min(left-4, chain.MaxTxSize)
		txs = append(txs, bytes.Repeat([]byte{byte(len(txs) + 1)}, n))
		left -= 4 + n
	}
	b := chain.NewBlock(chain.NewGenesis("wire-reader"), txs, time.UnixMilli(1), 1)
	if enc, err := b.Encode(); err != nil || len(enc) != size {
		t.Fatalf("block encodes to %d bytes (%v), want %d", len(enc), err, size)
	}
	return b
}

// stream frames the messages back to back.
func stream(t *testing.T, msgs ...Message) []byte {
	t.Helper()
	var out []byte
	for _, m := range msgs {
		out = append(out, frame(t, m)...)
	}
	return out
}

// expectMessages reads len(want) messages from r and compares each one's
// re-encoded frame with the expected message's.
func expectMessages(t *testing.T, r *Reader, want ...Message) {
	t.Helper()
	for i, w := range want {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("message %d (%v): %v", i, w.Type(), err)
		}
		if !bytes.Equal(frame(t, got), frame(t, w)) {
			t.Fatalf("message %d: got %v, differs from the %v sent", i, got.Type(), w.Type())
		}
	}
}

func TestWireReaderOneByteAtATime(t *testing.T) {
	msgs := fuzzSeedMessages()
	r := NewReader(iotest.OneByteReader(bytes.NewReader(stream(t, msgs...))))
	expectMessages(t, r, msgs...)
	if _, err := r.Read(); err != io.EOF || r.MidFrame() {
		t.Fatalf("after the last frame: %v, mid-frame %t; want a clean EOF", err, r.MidFrame())
	}
}

// chunkReader hands out one scripted chunk per Read and counts the calls;
// a nil chunk is a read deadline firing.
type chunkReader struct {
	chunks [][]byte
	reads  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	c.reads++
	chunk := c.chunks[0]
	if chunk == nil {
		c.chunks = c.chunks[1:]
		return 0, os.ErrDeadlineExceeded
	}
	n := copy(p, chunk)
	if c.chunks[0] = chunk[n:]; n == len(chunk) {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

func TestWireReaderBurstInOneRead(t *testing.T) {
	msgs := []Message{
		&Inv{Hashes: []chain.Hash{{1}}},
		&GetData{Hashes: []chain.Hash{{2}, {3}}},
		&Block{Block: blockOfSize(t, 1024)},
		&Addr{Addrs: []NetAddr{{Addr: "10.0.0.1:8333", AgeSec: 5}}},
	}
	raw := stream(t, msgs...)
	cut := len(raw) - len(frame(t, msgs[3]))/2
	src := &chunkReader{chunks: [][]byte{raw[:cut], raw[cut:]}}
	r := NewReader(src)
	expectMessages(t, r, msgs[:3]...)
	if src.reads != 1 {
		t.Fatalf("three buffered frames took %d reads of the connection, want 1", src.reads)
	}
	expectMessages(t, r, msgs[3])
	if src.reads != 2 {
		t.Fatalf("the split fourth frame took %d reads in all, want 2", src.reads)
	}
}

func TestWireReaderLargeBlocks(t *testing.T) {
	small := &Inv{Hashes: []chain.Hash{{9}}}
	// One block that just fills the buffer, and the largest the protocol
	// carries (MaxPayload is that plus 1 KB of slack).
	for _, size := range []int{BufferSize, chain.MaxBlockSize} {
		blk := &Block{Block: blockOfSize(t, size)}
		// A small frame on either side: the block must neither swallow its
		// neighbours' bytes nor leave its own behind.
		r := NewReader(bytes.NewReader(stream(t, small, blk, small)))
		expectMessages(t, r, small, blk, small)
		if cap(r.scratch) > BufferSize {
			t.Errorf("after a %d-byte block the reader keeps %d bytes of scratch, want <= %d", size, cap(r.scratch), BufferSize)
		}
	}
}

func TestWireReaderScratchDoesNotAlias(t *testing.T) {
	first := []Message{
		&Inv{Hashes: []chain.Hash{{1, 2, 3}, {4, 5, 6}}},
		&Version{Protocol: 1, NodeID: 7, ListenAddr: "127.0.0.1:9000", Nonce: 8},
		&Block{Block: blockOfSize(t, 300)},
		&Addr{Addrs: []NetAddr{{Addr: "10.0.0.1:8333", AgeSec: 5}}},
	}
	// Same-sized or larger payloads of other bytes, so a message that kept
	// a slice of the scratch would change under the next read.
	overwrite := &Block{Block: blockOfSize(t, 400)}
	for _, m := range first {
		r := NewReader(bytes.NewReader(stream(t, overwrite, m, overwrite)))
		expectMessages(t, r, overwrite)
		got, err := r.Read()
		if err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
		expectMessages(t, r, overwrite)
		if !bytes.Equal(frame(t, got), frame(t, m)) {
			t.Errorf("%v changed when the next frame was read", m.Type())
		}
	}
}

func TestWireReaderMidFrame(t *testing.T) {
	blk := &Block{Block: blockOfSize(t, 1024)}
	raw := frame(t, blk)
	for _, tc := range []struct {
		name string
		cut  int // bytes delivered before the deadline fires
		mid  bool
	}{
		{"at the boundary", 0, false},
		{"inside the header", 5, true},
		{"after the header", headerSize, true},
		{"inside the payload", headerSize + 100, true},
	} {
		chunks := [][]byte{nil, raw}
		if tc.cut > 0 {
			chunks = [][]byte{raw[:tc.cut], nil, raw[tc.cut:]}
		}
		r := NewReader(&chunkReader{chunks: chunks})
		_, err := r.Read()
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: got %v, want the deadline error", tc.name, err)
		}
		if r.MidFrame() != tc.mid {
			t.Fatalf("%s: MidFrame = %t, want %t", tc.name, r.MidFrame(), tc.mid)
		}
		if ViolationPoints(err) != 0 {
			t.Fatalf("%s: a timeout is charged %v points", tc.name, ViolationPoints(err))
		}
		if !tc.mid {
			// A deadline between frames loses nothing.
			expectMessages(t, r, blk)
			if r.MidFrame() {
				t.Fatalf("%s: MidFrame after a complete frame", tc.name)
			}
		}
	}
}

// TestReaderReusesOneHashScratch: an INV or GETDATA of one hash is valid
// only until the next Read, which decodes into the same scratch; a longer
// one is not overwritten.
func TestReaderReusesOneHashScratch(t *testing.T) {
	a, b, c := chain.Hash{0xA}, chain.Hash{0xB}, chain.Hash{0xC}
	long := &Inv{Hashes: []chain.Hash{a, b}}
	r := NewReader(bytes.NewReader(stream(t, &Inv{Hashes: []chain.Hash{a}}, &Inv{Hashes: []chain.Hash{b}}, long, &GetData{Hashes: []chain.Hash{c}})))
	read := func() Message {
		t.Helper()
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	first := read().(*Inv)
	second := read().(*Inv)
	if first != second || first.Hashes[0] != b {
		t.Fatalf("second INV is a new message (%t) or left the first reading %s, want the first's scratch holding %s", first != second, first.Hashes[0], b)
	}
	kept := read().(*Inv)
	getData := read().(*GetData)
	if kept == first || len(kept.Hashes) != 2 || kept.Hashes[0] != a || kept.Hashes[1] != b {
		t.Fatalf("a two-hash INV read before a GETDATA reads %v, want [%s %s]", kept.Hashes, a, b)
	}
	if getData.Hashes[0] != c || first.Hashes[0] != c {
		t.Fatalf("GETDATA reads %s and the first INV %s, want both %s: they share the scratch", getData.Hashes[0], first.Hashes[0], c)
	}
}
