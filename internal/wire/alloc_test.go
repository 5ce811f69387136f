//go:build !race

package wire

import (
	"bytes"
	"io"
	"testing"

	"github.com/perigee-net/perigee/internal/chain"
)

// repeatReader serves the same bytes over and over: a connection that
// always has the next frame ready.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// TestRelayMessagesAllocate pins what the relay's messages cost the wire
// once a connection's Reader is warm: nothing for a one-hash INV or
// GETDATA, three allocations for a 1 KB BLOCK (the message with its block,
// the transaction list and the body), the Reader and its payload for a
// one-shot Read of a one-hash INV, and nothing for Write, which frames into
// a pooled buffer. (Skipped under -race, which drops pooled buffers at random.)
func TestRelayMessagesAllocate(t *testing.T) {
	h := chain.Hash{1, 2, 3}
	for _, tc := range []struct {
		m    Message
		want float64
	}{
		{&Inv{Hashes: []chain.Hash{h}}, 0},
		{&GetData{Hashes: []chain.Hash{h}}, 0},
		{&Block{Block: blockOfSize(t, 1024)}, 3},
	} {
		r := NewReader(&repeatReader{data: frame(t, tc.m)})
		if got := testing.AllocsPerRun(100, func() {
			if _, err := r.Read(); err != nil {
				t.Fatal(err)
			}
		}); got != tc.want {
			t.Errorf("reading a %v through a Reader allocates %.1f times, want %.0f", tc.m.Type(), got, tc.want)
		}
	}

	inv := &Inv{Hashes: []chain.Hash{h}}
	invFrame := frame(t, inv)
	var src bytes.Reader
	if got := testing.AllocsPerRun(100, func() {
		src.Reset(invFrame)
		if _, err := Read(&src); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("a one-shot Read of a one-hash INV allocates %.1f times, want 2 (its Reader and the payload)", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := Write(io.Discard, inv); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Write of a one-hash INV allocates %.1f times, want 0", got)
	}
}
