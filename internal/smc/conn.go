// Package smc implements the Secure Multi-party Computation step of the
// hybrid protocol (paper Section V): a three-party protocol between the
// two data holders (Alice and Bob) and the querying party, built on the
// Paillier homomorphic cryptosystem, that decides whether an unknown
// record pair matches without revealing anything beyond the verdict (and,
// in the distance-revealing variant, the per-attribute distances to the
// querying party).
//
// The package separates three concerns: message transport (Conn; in-memory
// channel pairs for tests and single-process runs, a net.Conn for TCP
// deployments, both carrying internal/wire frames), the protocol itself
// (RunAlice, RunBob, QuerySession), and the Comparator abstraction the
// linkage engine consumes. A plaintext oracle Comparator evaluates the same
// integer arithmetic as the circuit and is used — exactly as the paper's own
// cost model does — when a sweep would need millions of decryptions;
// property tests pin the oracle to the real protocol.
package smc

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"

	"pprl/internal/wire"
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

// chanConn is the in-memory transport: wire frames over channels, one
// frame per message, so byte counts are the same as on a real wire.
type chanConn struct {
	in    <-chan []byte
	out   chan<- []byte
	done  chan struct{}
	peer  *chanConn
	sent  atomic.Int64
	owner bool // the side that closes `done`
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
	a := &chanConn{in: ba, out: ab, done: done, owner: true}
	b := &chanConn{in: ab, out: ba, done: done}
	a.peer, b.peer = b, a
	return a, b
}

func (c *chanConn) Send(m *Message) error {
	select {
	case <-c.done:
		return io.ErrClosedPipe
	default:
	}
	frame, err := wire.Marshal(m)
	if err != nil {
		return fmt.Errorf("smc: encoding message: %w", err)
	}
	select {
	case c.out <- frame:
		c.sent.Add(int64(len(frame)))
		return nil
	case <-c.done:
		return io.ErrClosedPipe
	}
}

func (c *chanConn) Recv() (*Message, error) {
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
	var m Message
	if err := wire.Unmarshal(frame, &m); err != nil {
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

// netConn is a Conn over a net.Conn (TCP in production).
type netConn struct{ *wire.Link }

// NewNetConn wraps a net.Conn as a message transport.
func NewNetConn(conn net.Conn) Conn { return netConn{wire.NewLink(conn)} }

func (c netConn) Send(m *Message) error { return c.Link.Send(m) }

func (c netConn) Recv() (*Message, error) {
	var m Message
	if err := c.Link.Recv(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Code declares Message's frame layout (PROTOCOL.md's message table).
func (m *Message) Code(c *wire.Coder) {
	wire.Kind(c, &m.Kind)
	switch m.Kind {
	case MsgPublicKey:
		c.Big(&m.N)
	case MsgCompare:
		wire.Int(c, &m.Record)
		wire.Slice(c, &m.Records, wire.Int[int])
	case MsgShares:
		wire.Slice(c, &m.Sq, (*wire.Coder).Big)
		wire.Slice(c, &m.Lin, (*wire.Coder).Big)
	case MsgResult:
		wire.Int(c, &m.Record)
		wire.Int(c, &m.Left)
		wire.Slice(c, &m.Res, (*wire.Coder).Big)
	case MsgShutdown:
	case MsgHello:
		c.String(&m.Role)
	case MsgParams:
		wire.Slice(c, &m.QIDs, (*wire.Coder).String)
		wire.Opt(c, &m.Spec, func(c *wire.Coder, s *Spec) { s.Code(c) })
	case MsgView:
		c.Bytes(&m.View)
	default:
		c.BadKind(int(m.Kind))
	}
}

// Code declares Spec's layout inside a frame.
func (s *Spec) Code(c *wire.Coder) {
	wire.Slice(c, &s.Attrs, func(c *wire.Coder, a *AttrSpec) {
		wire.Int(c, &a.Mode)
		wire.Int(c, &a.T)
	})
	wire.Int(c, &s.Scale)
	wire.Int(c, &s.Packing)
	wire.Int(c, &s.ValueBits)
}
