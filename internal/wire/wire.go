// Package wire owns the frame format of both peer links, smc.Conn and the
// worker fleet's: a uvarint n, a version byte, and n bytes of body — a kind
// byte, then that kind's fields in the order its Code method declares
// (PROTOCOL.md "Frames"). One Code method both writes and reads a message,
// so each union has one switch over its kinds and nothing reflects over a
// peer's bytes. Reading is bounded — n and the version are checked before
// the body is read, the body buffer grows with the bytes that arrive, and
// every count is checked against the bytes left — and canonical: a frame
// decodes only if encoding the result gives back the same bytes.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"slices"
	"sync"
	"sync/atomic"
)

// Version is the frame format's version byte. Version 1's MsgParams carried
// the tier's CLK shape; version 2's carries a bool. Version 3 has no tier:
// MsgParams ends at its spec, and kind 8, a holder's CLK encodings, is gone.
const Version = 3

// MaxBody caps n. The largest frames are a holder's view and the record
// rows a fleet job ships, each a few bytes to a few dozen a record.
const MaxBody = 1 << 30

var (
	// ErrTooLarge refuses a body over MaxBody before any of it is sent or read.
	ErrTooLarge = errors.New("wire: frame over the size cap")
	// ErrVersion refuses a frame with a foreign version byte.
	ErrVersion = errors.New("wire: foreign frame version")
	// ErrMalformed refuses a body that is not one message's canonical encoding.
	ErrMalformed = errors.New("wire: malformed frame")
)

// Codable is a message whose Code runs a Coder over its kind, then fields.
type Codable interface{ Code(c *Coder) }

// Coder writes or reads one frame body. Its methods take a pointer to the
// field: encoding reads it, decoding sets it.
type Coder struct {
	buf    []byte // encoding: the frame so far; decoding: the body left
	decode bool
	err    error
}

const headroom = binary.MaxVarintLen32 + 1 // before a body, for its header

// Marshal returns m's frame, or an error and nothing to send.
func Marshal(m Codable) ([]byte, error) { return appendFrame(make([]byte, 0, 128), m) }

// appendFrame encodes m's frame into buf's array, from its start.
func appendFrame(buf []byte, m Codable) ([]byte, error) {
	c := Coder{buf: append(buf[:0], make([]byte, headroom)...)}
	m.Code(&c)
	if !c.room(0) || c.err != nil { // room(0): the body is within MaxBody
		return nil, c.err
	}
	hdr := append(binary.AppendUvarint(make([]byte, 0, headroom), uint64(len(c.buf)-headroom)), Version)
	return append(c.buf[:copy(c.buf, hdr)], c.buf[headroom:]...), nil
}

// Link frames messages over a net.Conn. Each frame is one Write, under a
// send mutex, since net.Conn does not promise that concurrent Writes do not
// interleave; reads go through a bufio.Reader, one reader at a time.
type Link struct {
	conn net.Conn
	r    *bufio.Reader
	mu   sync.Mutex
	wbuf []byte // the last frame sent; the next one reuses its array
	sent atomic.Int64
}

// NewLink wraps conn.
func NewLink(conn net.Conn) *Link { return &Link{conn: conn, r: bufio.NewReader(conn)} }

// Send writes m's frame; a frame Marshal refuses writes nothing.
func (l *Link) Send(m Codable) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	frame, err := appendFrame(l.wbuf, m)
	if err != nil {
		return err
	}
	l.wbuf = frame
	n, err := l.conn.Write(frame)
	l.sent.Add(int64(n))
	return err
}

// Recv reads one frame into m, which must be zero. It returns io.EOF bare
// when the peer hangs up at a frame boundary.
func (l *Link) Recv(m Codable) error {
	n, err := readHeader(l.r)
	if err != nil {
		return err
	}
	body := make([]byte, 0, min(n, readChunk))
	for len(body) < n {
		next := min(n-len(body), readChunk)
		body = slices.Grow(body, next)
		k, err := io.ReadFull(l.r, body[len(body):len(body)+next])
		if body = body[:len(body)+k]; err != nil {
			return noEOF(err)
		}
	}
	return decode(body, m)
}

// Bytes returns the bytes written so far.
func (l *Link) Bytes() int64 { return l.sent.Load() }

// Close closes the connection.
func (l *Link) Close() error { return l.conn.Close() }

// readChunk bounds how far Recv's body buffer runs ahead of the bytes that
// have arrived, so a peer that claims MaxBody and stops costs this much.
const readChunk = 64 << 10

// Unmarshal decodes the whole frame into m, which must be zero. Byte
// fields of m alias frame.
func Unmarshal(frame []byte, m Codable) error {
	r := bytes.NewReader(frame)
	n, err := readHeader(r)
	if err != nil {
		return err
	}
	if r.Len() != n {
		return fmt.Errorf("%w: header says %d body bytes, %d follow", ErrMalformed, n, r.Len())
	}
	return decode(frame[len(frame)-n:], m)
}

func readHeader(r io.ByteReader) (int, error) {
	var n uint64
	for shift := 0; ; shift += 7 {
		b, err := r.ReadByte()
		if err != nil {
			if shift == 0 {
				return 0, err // io.EOF at a frame boundary
			}
			return 0, noEOF(err)
		}
		if b == 0 && shift > 0 {
			return 0, fmt.Errorf("%w: overlong length", ErrMalformed)
		}
		if n |= uint64(b&0x7f) << shift; n > MaxBody || shift > 28 {
			return 0, fmt.Errorf("%w: cap %d", ErrTooLarge, MaxBody)
		}
		if b < 0x80 {
			break
		}
	}
	v, err := r.ReadByte()
	if err != nil {
		return 0, noEOF(err)
	}
	if v != Version {
		return 0, fmt.Errorf("%w %d: this end speaks %d", ErrVersion, v, Version)
	}
	return int(n), nil
}

func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func decode(body []byte, m Codable) error {
	c := Coder{buf: body, decode: true}
	if m.Code(&c); len(c.buf) > 0 {
		c.fail("trailing bytes")
	}
	return c.err
}

// fail records the first malformation; later reads find the body empty.
func (c *Coder) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrMalformed, what)
	}
	c.buf = nil
}

// room reports whether n more bytes keep an encoded body within MaxBody,
// and fails the frame with ErrTooLarge when they do not.
func (c *Coder) room(n int) bool {
	if c.decode || n <= MaxBody-(len(c.buf)-headroom) {
		return true
	}
	if c.err == nil {
		c.err = fmt.Errorf("%w: cap %d", ErrTooLarge, MaxBody)
	}
	return false
}

// BadKind fails the frame, in either direction: Code methods call it for a
// kind they do not declare.
func (c *Coder) BadKind(k int) { c.fail(fmt.Sprintf("unknown kind %d", k)) }

// Kind codes a message's kind as one byte.
func Kind[K ~int](c *Coder, k *K) {
	if !c.decode {
		c.buf = append(c.buf, byte(*k))
	} else if len(c.buf) == 0 {
		c.fail("truncated")
	} else {
		*k, c.buf = K(c.buf[0]), c.buf[1:]
	}
}

func (c *Coder) uvarint() uint64 {
	x, n := binary.Uvarint(c.buf)
	if n <= 0 || n > 1 && c.buf[n-1] == 0 {
		c.fail("bad varint")
		return 0
	}
	c.buf = c.buf[n:]
	return x
}

// count codes a length or an element count. Every element takes a byte at
// least, so encoding refuses one over the room left before it is copied,
// and decoding one over the bytes left before it is allocated.
func (c *Coder) count(n int) int {
	if !c.decode {
		if !c.room(n) {
			return 0
		}
		c.buf = binary.AppendUvarint(c.buf, uint64(n))
		return n
	}
	if x := c.uvarint(); x <= uint64(len(c.buf)) {
		return int(x)
	}
	c.fail("count over the bytes left")
	return 0
}

// Int codes an integer as a zig-zag varint.
func Int[T ~int | ~int64](c *Coder, v *T) {
	if !c.decode {
		c.buf = binary.AppendVarint(c.buf, int64(*v))
		return
	}
	u := c.uvarint()
	x := int64(u>>1) ^ -int64(u&1)
	if *v = T(x); int64(*v) != x {
		c.fail("integer out of range")
	}
}

// Bool codes one byte, 0 or 1.
func (c *Coder) Bool(v *bool) {
	b := 0
	if *v {
		b = 1
	}
	if Kind(c, &b); b > 1 {
		c.fail("bad bool")
	}
	*v = b == 1
}

// Bytes codes a length and the bytes; decoding aliases the body, and an
// empty slice decodes as nil.
func (c *Coder) Bytes(v *[]byte) {
	if n := c.count(len(*v)); c.err != nil {
		return
	} else if !c.decode {
		c.buf = append(c.buf, *v...)
	} else if n > 0 {
		*v, c.buf = c.buf[:n:n], c.buf[n:]
	}
}

// String codes a string as Bytes does.
func (c *Coder) String(v *string) {
	b := []byte(*v)
	if c.Bytes(&b); c.decode {
		*v = string(b)
	}
}

// Big codes a big integer as a uvarint h = 2·len + sign and len bytes of
// big-endian magnitude with no leading zero. A nil one encodes as zero.
func (c *Coder) Big(v **big.Int) {
	if !c.decode {
		x, neg := *v, 0
		if x == nil {
			x = new(big.Int)
		}
		if x.Sign() < 0 {
			neg = 1
		}
		n := (x.BitLen() + 7) / 8
		c.buf = append(binary.AppendUvarint(c.buf, uint64(2*n+neg)), make([]byte, n)...)
		x.FillBytes(c.buf[len(c.buf)-n:])
		return
	}
	h := c.uvarint()
	n, neg := h>>1, h&1 == 1
	if n > uint64(len(c.buf)) || n == 0 && neg || n > 0 && c.buf[0] == 0 {
		c.fail("bad integer")
		return
	}
	if *v, c.buf = new(big.Int).SetBytes(c.buf[:n]), c.buf[n:]; neg {
		(*v).Neg(*v)
	}
}

// Slice codes a count and then each element with code. An empty slice
// decodes as nil.
func Slice[T any](c *Coder, s *[]T, code func(*Coder, *T)) {
	n := c.count(len(*s))
	if c.decode && n > 0 {
		*s = make([]T, n)
	}
	for i := range (*s)[:n] {
		code(c, &(*s)[i])
	}
}

// Opt codes a presence bool and then, when *p is not nil, the value with
// code.
func Opt[T any](c *Coder, p **T, code func(*Coder, *T)) {
	present := *p != nil
	if c.Bool(&present); !present {
		return
	}
	if c.decode {
		*p = new(T)
	}
	code(c, *p)
}
