// Package smc implements the Secure Multi-party Computation step of the
// hybrid protocol (paper Section V): a three-party protocol between the
// two data holders (Alice and Bob) and the querying party, built on the
// Paillier homomorphic cryptosystem, that decides whether an unknown
// record pair matches without revealing anything beyond the verdict (and,
// in the distance-revealing variant, the per-attribute distances to the
// querying party).
//
// The package separates three concerns: message transport (Conn; in-memory
// channel pairs for tests and single-process runs, gob-over-net.Conn for
// TCP deployments), the protocol itself (RunAlice, RunBob, QuerySession),
// and the Comparator abstraction the linkage engine consumes. A plaintext
// oracle Comparator evaluates the same integer arithmetic as the circuit
// and is used — exactly as the paper's own cost model does — when a sweep
// would need millions of decryptions; property tests pin the oracle to the
// real protocol.
package smc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Conn is a reliable, ordered message pipe between two parties.
type Conn interface {
	// Send serializes and delivers one message.
	Send(m *Message) error
	// Recv blocks for the next message.
	Recv() (*Message, error)
	// Close releases the connection; pending Recv calls fail.
	Close() error
	// Bytes returns the total bytes sent on this end.
	Bytes() int64
}

// FrameBuffered is implemented by transports with a bounded number of
// in-flight frames. QuerySession derives its pipelining window from it so
// request fan-out can never deadlock against unread results; transports
// without the interface (TCP) get the default window.
type FrameBuffered interface {
	// FrameBuffer returns how many sent-but-unread frames the transport
	// can hold without blocking the sender.
	FrameBuffer() int
}

// chanConn is the in-memory transport: gob-encoded frames over channels,
// one frame per message. Each direction is one gob stream, as on a
// net.Conn — the type descriptor crosses once, with the first message — so
// byte counts are the same as on a real wire.
type chanConn struct {
	in    <-chan []byte
	out   chan<- []byte
	done  chan struct{}
	peer  *chanConn
	sent  atomic.Int64
	owner bool // the side that closes `done`

	// A stream's frames must be queued in the order they were encoded and
	// decoded in the order they were queued, so each lock is held across
	// its channel operation; closing the connection releases both.
	sendMu sync.Mutex
	wbuf   bytes.Buffer
	enc    *gob.Encoder // into wbuf
	recvMu sync.Mutex
	rbuf   bytes.Reader
	dec    *gob.Decoder // from rbuf
}

func newChanConn(in <-chan []byte, out chan<- []byte, done chan struct{}, owner bool) *chanConn {
	c := &chanConn{in: in, out: out, done: done, owner: owner}
	c.enc, c.dec = gob.NewEncoder(&c.wbuf), gob.NewDecoder(&c.rbuf)
	return c
}

// NewConnPair returns the two ends of an in-memory connection with the
// default frame buffer.
func NewConnPair() (Conn, Conn) {
	return NewConnPairBuffer(64)
}

// NewConnPairBuffer returns an in-memory connection pair holding at most
// buffer unread frames per direction. Smaller buffers model constrained
// transports; QuerySession shrinks its pipelining window to fit.
func NewConnPairBuffer(buffer int) (Conn, Conn) {
	if buffer < 1 {
		buffer = 1
	}
	ab := make(chan []byte, buffer)
	ba := make(chan []byte, buffer)
	done := make(chan struct{})
	a := newChanConn(ba, ab, done, true)
	b := newChanConn(ab, ba, done, false)
	a.peer, b.peer = b, a
	return a, b
}

func (c *chanConn) Send(m *Message) error {
	select {
	case <-c.done:
		return io.ErrClosedPipe
	default:
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.wbuf.Reset()
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("smc: encoding message: %w", err)
	}
	frame := bytes.Clone(c.wbuf.Bytes())
	select {
	case c.out <- frame:
		c.sent.Add(int64(len(frame)))
		return nil
	case <-c.done:
		return io.ErrClosedPipe
	}
}

func (c *chanConn) Recv() (*Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	var frame []byte
	select {
	case frame = <-c.in:
	case <-c.done:
		// Drain any frame that raced with close.
		select {
		case frame = <-c.in:
		default:
			return nil, io.EOF
		}
	}
	c.rbuf.Reset(frame)
	var m Message
	if err := c.dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("smc: decoding message: %w", err)
	}
	return &m, nil
}

func (c *chanConn) Close() error {
	if c.owner {
		defer func() { recover() }() // double close tolerated
		close(c.done)
	} else {
		c.peer.Close()
	}
	return nil
}

func (c *chanConn) Bytes() int64 { return c.sent.Load() }

// FrameBuffer implements FrameBuffered: the channel capacity per
// direction.
func (c *chanConn) FrameBuffer() int { return cap(c.out) }

// netConn is gob framing over any net.Conn (TCP in production).
type netConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	sent atomic.Int64
}

// NewNetConn wraps a net.Conn as a message transport.
func NewNetConn(conn net.Conn) Conn {
	nc := &netConn{conn: conn}
	cw := &countingWriter{w: conn, n: &nc.sent}
	nc.enc = gob.NewEncoder(cw)
	nc.dec = gob.NewDecoder(conn)
	return nc
}

func (c *netConn) Send(m *Message) error {
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("smc: sending message: %w", err)
	}
	return nil
}

func (c *netConn) Recv() (*Message, error) {
	var m Message
	if err := c.dec.Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

func (c *netConn) Close() error { return c.conn.Close() }
func (c *netConn) Bytes() int64 { return c.sent.Load() }

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	return n, err
}
