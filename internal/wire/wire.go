// Package wire defines the binary message protocol spoken by live Perigee
// nodes: Bitcoin-flavored framing (magic, type, length, checksum) around a
// small message set — VERSION/VERACK handshake, PING/PONG liveness,
// INV/GETDATA/BLOCK relay, and ADDR/GETADDR peer discovery.
//
// All decoders are hardened against hostile input: payload sizes, item
// counts, and string lengths are bounded before any allocation.
//
// A frame is built in place — AppendFrame reserves the header, encodes the
// payload behind it and fills the header in — so one frame is one Write,
// and a peer's writer appends every frame already queued to one buffer and
// flushes when its queue is empty: a burst costs one syscall. Write frames
// into a pooled buffer.
//
// The reading side of a connection is a Reader, buffered and reusing one
// payload scratch; Read is the one-shot form for a handshake, which must not
// read ahead of the frame it wants. A Reader decodes an INV or GETDATA of
// at most one hash, the relay's usual message, into scratch of its own: that
// message is valid only until the next Read on the same Reader, as the
// bytes of a bufio.Scanner are until its next Scan. Every other message
// owns its memory. A BLOCK is one allocation for the message and its block,
// plus the block's transaction list and body; the message keeps the
// checksum the Reader verified, and a node that relays the block sends that
// very message on, framed on that checksum instead of hashing the payload a
// second time.
package wire

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/perigee-net/perigee/internal/chain"
)

// Magic identifies the Perigee wire protocol in the frame header.
const Magic uint32 = 0x50524749 // "PRGI"

// ProtocolVersion is negotiated in the VERSION message.
const ProtocolVersion uint32 = 1

// MsgType identifies a message.
type MsgType uint8

// The protocol's message types.
const (
	MsgVersion MsgType = iota + 1
	MsgVerack
	MsgPing
	MsgPong
	MsgInv
	MsgGetData
	MsgBlock
	MsgAddr
	MsgGetAddr
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgVersion:
		return "version"
	case MsgVerack:
		return "verack"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgInv:
		return "inv"
	case MsgGetData:
		return "getdata"
	case MsgBlock:
		return "block"
	case MsgAddr:
		return "addr"
	case MsgGetAddr:
		return "getaddr"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Limits protecting decoders.
const (
	// MaxPayload bounds a frame's payload size.
	MaxPayload = chain.MaxBlockSize + 1024
	// MaxInvHashes bounds hashes per INV/GETDATA.
	MaxInvHashes = 1024
	// MaxAddrs bounds addresses per ADDR.
	MaxAddrs = 256
	// MaxAddrLen bounds a single address string.
	MaxAddrLen = 256
)

// Protocol errors.
var (
	// ErrBadMagic indicates a frame with the wrong network magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrChecksum indicates a frame whose payload checksum mismatched.
	ErrChecksum = errors.New("wire: checksum mismatch")
	// ErrTooLarge indicates a frame or element exceeding protocol limits.
	ErrTooLarge = errors.New("wire: message too large")
	// ErrMalformed indicates an undecodable payload.
	ErrMalformed = errors.New("wire: malformed payload")
	// ErrUnknownType indicates an unrecognized message type byte.
	ErrUnknownType = errors.New("wire: unknown message type")
)

// Message is any protocol message.
type Message interface {
	// Type returns the message's wire type.
	Type() MsgType
	// encodePayload appends the message payload.
	encodePayload(buf []byte) ([]byte, error)
}

// Version opens the handshake in both directions.
type Version struct {
	// Protocol is the sender's protocol version.
	Protocol uint32
	// NodeID is the sender's random identity (also used to detect
	// self-connections).
	NodeID uint64
	// ListenAddr is the sender's accepting address ("host:port"), empty if
	// not listening.
	ListenAddr string
	// Nonce is a per-connection random value.
	Nonce uint64
}

// Type implements Message.
func (*Version) Type() MsgType { return MsgVersion }

func (m *Version) encodePayload(buf []byte) ([]byte, error) {
	if len(m.ListenAddr) > MaxAddrLen {
		return nil, fmt.Errorf("%w: listen addr %d bytes", ErrTooLarge, len(m.ListenAddr))
	}
	buf = binary.LittleEndian.AppendUint32(buf, m.Protocol)
	buf = binary.LittleEndian.AppendUint64(buf, m.NodeID)
	buf = appendString(buf, m.ListenAddr)
	buf = binary.LittleEndian.AppendUint64(buf, m.Nonce)
	return buf, nil
}

// Verack acknowledges a Version.
type Verack struct{}

// Type implements Message.
func (*Verack) Type() MsgType { return MsgVerack }

func (*Verack) encodePayload(buf []byte) ([]byte, error) { return buf, nil }

// Ping probes liveness.
type Ping struct {
	// Nonce is echoed back in the Pong.
	Nonce uint64
}

// Type implements Message.
func (*Ping) Type() MsgType { return MsgPing }

func (m *Ping) encodePayload(buf []byte) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(buf, m.Nonce), nil
}

// Pong answers a Ping.
type Pong struct {
	// Nonce matches the corresponding Ping.
	Nonce uint64
}

// Type implements Message.
func (*Pong) Type() MsgType { return MsgPong }

func (m *Pong) encodePayload(buf []byte) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(buf, m.Nonce), nil
}

// Inv announces block availability by hash.
type Inv struct {
	// Hashes are the announced block hashes.
	Hashes []chain.Hash
}

// Type implements Message.
func (*Inv) Type() MsgType { return MsgInv }

func (m *Inv) encodePayload(buf []byte) ([]byte, error) { return appendHashes(buf, m.Hashes) }

// GetData requests blocks by hash.
type GetData struct {
	// Hashes are the requested block hashes.
	Hashes []chain.Hash
}

// Type implements Message.
func (*GetData) Type() MsgType { return MsgGetData }

func (m *GetData) encodePayload(buf []byte) ([]byte, error) { return appendHashes(buf, m.Hashes) }

// Block carries a full block. A Block a Reader returned frames on the
// checksum that Reader verified, without hashing the payload again, for as
// long as Block is the block it decoded: its block must not be changed, and
// a Block pointed at another block is framed and hashed afresh. Nothing
// writes to a Block while it is framed, so one can be queued to any number
// of peers.
type Block struct {
	// Block is the payload block.
	Block *chain.Block

	decoded *chain.Block // the block a Reader decoded, nil if none
	sum     [4]byte      // the checksum of the frame decoded was read from
}

// Type implements Message.
func (*Block) Type() MsgType { return MsgBlock }

func (m *Block) encodePayload(buf []byte) ([]byte, error) {
	if m.Block == nil {
		return nil, fmt.Errorf("%w: nil block", ErrMalformed)
	}
	return m.Block.AppendEncode(buf)
}

// verifiedSum returns the checksum a Reader verified on the payload of m's
// block, if m is a BLOCK a Reader decoded and still carries that block. A
// decoded block encodes back to exactly the payload it was decoded from.
func verifiedSum(m Message) ([4]byte, bool) {
	b, ok := m.(*Block)
	if !ok || b.decoded == nil || b.Block != b.decoded {
		return [4]byte{}, false
	}
	return b.sum, true
}

// Addr gossips known listening addresses with freshness metadata.
type Addr struct {
	// Addrs are the gossiped addresses with their claimed ages.
	Addrs []NetAddr
}

// Type implements Message.
func (*Addr) Type() MsgType { return MsgAddr }

func (m *Addr) encodePayload(buf []byte) ([]byte, error) {
	if len(m.Addrs) > MaxAddrs {
		return nil, fmt.Errorf("%w: %d addresses", ErrTooLarge, len(m.Addrs))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Addrs)))
	for _, a := range m.Addrs {
		if len(a.Addr) > MaxAddrLen {
			return nil, fmt.Errorf("%w: address %d bytes", ErrTooLarge, len(a.Addr))
		}
		buf = appendString(buf, a.Addr)
		buf = binary.LittleEndian.AppendUint32(buf, a.AgeSec)
	}
	return buf, nil
}

// GetAddr requests an Addr sample.
type GetAddr struct{}

// Type implements Message.
func (*GetAddr) Type() MsgType { return MsgGetAddr }

func (*GetAddr) encodePayload(buf []byte) ([]byte, error) { return buf, nil }

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func appendHashes(buf []byte, hashes []chain.Hash) ([]byte, error) {
	if len(hashes) > MaxInvHashes {
		return nil, fmt.Errorf("%w: %d hashes", ErrTooLarge, len(hashes))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hashes)))
	for i := range hashes {
		buf = append(buf, hashes[i][:]...)
	}
	return buf, nil
}

// headerSize is the frame header: magic(4) type(1) length(4) checksum(4).
const headerSize = 13

// BufferSize is what one connection buffers in each direction: a Reader
// fills up to this much per socket read, and a peer's writer sends a burst
// once it holds this much. A frame larger than this still travels whole.
const BufferSize = 64 << 10

// AppendFrame appends m's frame to buf: magic(4) type(1) length(4)
// checksum(4) payload, the checksum being the first 4 bytes of the
// payload's SHA-256, or, for a BLOCK a Reader decoded, the same 4 bytes as
// that Reader verified them. The payload is encoded in place behind a
// reserved header, which is filled in once the length is known; m is only
// read. On error buf is returned unchanged.
func AppendFrame(buf []byte, m Message) ([]byte, error) {
	var reserve [headerSize]byte
	out, err := m.encodePayload(append(buf, reserve[:]...))
	if err != nil {
		return buf, err
	}
	frame := out[len(buf):]
	header, payload := frame[:headerSize], frame[headerSize:]
	if len(payload) > MaxPayload {
		return buf, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, len(payload))
	}
	binary.LittleEndian.PutUint32(header[0:4], Magic)
	header[4] = byte(m.Type())
	binary.LittleEndian.PutUint32(header[5:9], uint32(len(payload)))
	if sum, ok := verifiedSum(m); ok {
		copy(header[9:13], sum[:])
	} else {
		sum := sha256.Sum256(payload)
		copy(header[9:13], sum[:4])
	}
	return out, nil
}

// framePool holds the buffers Write frames into.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// Write frames a message into a pooled buffer and hands the frame to w in
// one Write call.
func Write(w io.Writer, m Message) error {
	buf := framePool.Get().(*[]byte)
	frame, err := AppendFrame((*buf)[:0], m)
	if err == nil {
		if _, werr := w.Write(frame); werr != nil {
			err = fmt.Errorf("wire: writing frame: %w", werr)
		}
	}
	// A frame past the buffer size is a one-off: pooling it would pin a
	// 4 MB block's worth of memory.
	if cap(frame) <= BufferSize {
		*buf = frame[:0]
		framePool.Put(buf)
	}
	return err
}

// Read reads and decodes one framed message, taking exactly the frame's
// bytes from r. It reads through a Reader of its own, so the message stays
// valid. A connection that carries many frames reads them through
// NewReader instead.
func Read(r io.Reader) (Message, error) {
	one := Reader{r: r}
	return one.Read()
}

// Reader reads the frames of one connection through a BufferSize buffer,
// so a burst of small frames costs one read of the connection, and reuses
// one payload scratch across frames. An INV or GETDATA of at most one hash
// is decoded into the Reader's own scratch and is valid only until the next
// Read; every other message owns its memory. It is not safe for concurrent
// use.
type Reader struct {
	r       io.Reader
	header  [headerSize]byte
	scratch []byte
	partial bool

	// hash backs the Hashes of inv or getData, the message Read last
	// returned when that was an INV or GETDATA of at most one hash.
	hash    [1]chain.Hash
	inv     Inv
	getData GetData
}

// NewReader returns a Reader over r. It reads ahead, so nothing else may
// read from r afterwards.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, BufferSize)}
}

// Read reads and decodes the next framed message. The length is bounded
// before anything is allocated and the checksum verified before anything is
// decoded; no decoder keeps a reference into the payload scratch. An INV or
// GETDATA of at most one hash that it returns is overwritten by the next
// Read.
func (r *Reader) Read() (Message, error) {
	n, err := io.ReadFull(r.r, r.header[:])
	r.partial = n > 0
	if err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(r.header[0:4]); got != Magic {
		return nil, fmt.Errorf("%w: %08x", ErrBadMagic, got)
	}
	msgType := MsgType(r.header[4])
	length := binary.LittleEndian.Uint32(r.header[5:9])
	if length > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, length)
	}
	payload := r.scratch
	if uint32(cap(payload)) < length {
		payload = make([]byte, length)
		// A payload past the buffer size is a one-off: keeping it would pin
		// a 4 MB block's worth of scratch per connection.
		if length <= BufferSize {
			r.scratch = payload
		}
	}
	payload = payload[:length]
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return nil, fmt.Errorf("wire: reading payload: %w", err)
	}
	r.partial = false
	sum := sha256.Sum256(payload)
	if string(sum[:4]) != string(r.header[9:13]) {
		return nil, ErrChecksum
	}
	return r.decode(msgType, payload, [4]byte(sum[:4]))
}

// MidFrame reports whether the last Read failed after consuming part of a
// frame. A read deadline that fires at a frame boundary leaves the stream
// intact and Read may be called again; one that fires mid-frame does not —
// the next Read would parse payload bytes as a header.
func (r *Reader) MidFrame() bool { return r.partial }

// decode decodes payload p of a frame of type t whose checksum sum was
// verified. An INV or GETDATA of at most one hash is decoded into r's
// scratch.
func (r *Reader) decode(t MsgType, p []byte, sum [4]byte) (Message, error) {
	d := decoder{buf: p}
	var m Message
	switch t {
	case MsgVersion:
		v := &Version{}
		v.Protocol = d.uint32()
		v.NodeID = d.uint64()
		v.ListenAddr = d.str()
		v.Nonce = d.uint64()
		m = v
	case MsgVerack:
		m = &Verack{}
	case MsgPing:
		m = &Ping{Nonce: d.uint64()}
	case MsgPong:
		m = &Pong{Nonce: d.uint64()}
	// The relay's INVs and GETDATAs carry one hash almost always: such a
	// message is decoded into the reader's scratch, a longer one into
	// memory of its own.
	case MsgInv:
		if hashes := d.hashes(r.hash[:0]); len(hashes) > 1 {
			m = &Inv{Hashes: hashes}
		} else {
			r.inv.Hashes = hashes
			m = &r.inv
		}
	case MsgGetData:
		if hashes := d.hashes(r.hash[:0]); len(hashes) > 1 {
			m = &GetData{Hashes: hashes}
		} else {
			r.getData.Hashes = hashes
			m = &r.getData
		}
	case MsgBlock:
		// The message and its block are one allocation.
		one := &struct {
			msg Block
			blk chain.Block
		}{}
		if err := one.blk.UnmarshalBinary(p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		one.msg = Block{Block: &one.blk, decoded: &one.blk, sum: sum}
		return &one.msg, nil
	case MsgAddr:
		a := &Addr{}
		count := d.uint32()
		if count > MaxAddrs {
			return nil, fmt.Errorf("%w: %d addresses", ErrTooLarge, count)
		}
		for i := uint32(0); i < count && d.err == nil; i++ {
			na := NetAddr{Addr: d.str()}
			na.AgeSec = d.uint32()
			a.Addrs = append(a.Addrs, na)
		}
		m = a
	case MsgGetAddr:
		m = &GetAddr{}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, uint8(t))
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in %v", ErrMalformed, len(d.buf), t)
	}
	return m, nil
}

// decoder is a cursor over a payload that records the first error.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = fmt.Errorf("%w: truncated field", ErrMalformed)
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) uint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) str() string {
	n := int(d.uint16())
	if d.err != nil {
		return ""
	}
	if n > MaxAddrLen {
		d.err = fmt.Errorf("%w: string of %d bytes", ErrTooLarge, n)
		return ""
	}
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// hashes reads a counted list of hashes into out when it has room for them
// all, or into a slice of its own.
func (d *decoder) hashes(out []chain.Hash) []chain.Hash {
	count := d.uint32()
	if d.err != nil {
		return nil
	}
	if count > MaxInvHashes {
		d.err = fmt.Errorf("%w: %d hashes", ErrTooLarge, count)
		return nil
	}
	// Reserve no more than the remaining bytes can hold, so a forged count
	// costs nothing before the payload runs out.
	if int(count) > cap(out) {
		out = make([]chain.Hash, 0, min(int(count), len(d.buf)/32))
	}
	for i := uint32(0); i < count; i++ {
		b := d.take(32)
		if b == nil {
			return nil
		}
		var h chain.Hash
		copy(h[:], b)
		out = append(out, h)
	}
	return out
}
