package testkit

import (
	"math/big"
	"net"
	"sync"
	"time"

	"pprl/internal/smc"
)

// FaultKind selects what happens to the frame at a faulted position.
type FaultKind int

const (
	// FaultDrop loses the frame and kills the link, modeling a crashed
	// transport: the peer's Recv fails instead of blocking forever on a
	// frame that will never arrive.
	FaultDrop FaultKind = iota
	// FaultTruncate delivers the frame with its vectors — ciphertexts, a
	// run's record list — (or key material) cut short, modeling a
	// partially written message.
	FaultTruncate
	// FaultGarble delivers the frame with every ciphertext replaced by
	// zero and every record handle by −1: an invalid Paillier ciphertext,
	// a record nobody holds — the receiver must reject both.
	FaultGarble
	// FaultDelay delivers the frame intact after a pause; ordering is
	// preserved, so the protocol must still produce correct verdicts.
	FaultDelay
)

func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultTruncate:
		return "truncate"
	case FaultGarble:
		return "garble"
	case FaultDelay:
		return "delay"
	default:
		return "unknown"
	}
}

// Fault schedules one fault at a 0-based outgoing frame position.
type Fault struct {
	Pos  int
	Kind FaultKind
}

// FaultConn wraps an smc.Conn and applies the scheduled faults to
// outgoing frames, counting Send calls from zero.
type FaultConn struct {
	inner  smc.Conn
	delay  time.Duration
	mu     sync.Mutex
	pos    int
	faults map[int]FaultKind
}

// WrapFaulty wraps inner with a deterministic fault schedule.
func WrapFaulty(inner smc.Conn, faults ...Fault) *FaultConn {
	m := make(map[int]FaultKind, len(faults))
	for _, f := range faults {
		m[f.Pos] = f.Kind
	}
	return &FaultConn{inner: inner, faults: m, delay: 5 * time.Millisecond}
}

// Send implements smc.Conn, applying the fault scheduled for the current
// frame position, if any.
func (c *FaultConn) Send(m *smc.Message) error {
	c.mu.Lock()
	kind, hit := c.faults[c.pos]
	c.pos++
	c.mu.Unlock()
	if !hit {
		return c.inner.Send(m)
	}
	switch kind {
	case FaultDrop:
		c.inner.Close()
		return nil // the frame is silently lost; the link is dead
	case FaultTruncate:
		return c.inner.Send(truncateMessage(m))
	case FaultGarble:
		return c.inner.Send(garbleMessage(m))
	case FaultDelay:
		time.Sleep(c.delay)
	}
	return c.inner.Send(m)
}

// Recv implements smc.Conn.
func (c *FaultConn) Recv() (*smc.Message, error) { return c.inner.Recv() }

// Close implements smc.Conn.
func (c *FaultConn) Close() error { return c.inner.Close() }

// Bytes implements smc.Conn.
func (c *FaultConn) Bytes() int64 { return c.inner.Bytes() }

// FrameBuffer forwards the inner transport's buffer so the query
// session's pipelining window stays deadlock-free under wrapping.
func (c *FaultConn) FrameBuffer() int {
	if fb, ok := c.inner.(smc.FrameBuffered); ok {
		return fb.FrameBuffer()
	}
	return 0
}

// DelayConn is FaultDelay on every frame of a byte stream: a net.Conn
// (the fleet link, say) whose writes each wait Delay first, then deliver
// intact and in order — a slow link, not a broken one.
type DelayConn struct {
	net.Conn
	Delay time.Duration
}

// Write implements net.Conn.
func (c DelayConn) Write(b []byte) (int, error) {
	time.Sleep(c.Delay)
	return c.Conn.Write(b)
}

// truncateMessage returns a copy with its vectors — ciphertexts, a run's
// record list — shortened by one element; a message with no vectors loses
// its key material instead.
func truncateMessage(m *smc.Message) *smc.Message {
	out := *m
	cut := false
	if len(out.Records) > 0 {
		out.Records = out.Records[:len(out.Records)-1]
		cut = true
	}
	if len(out.Sq) > 0 {
		out.Sq = out.Sq[:len(out.Sq)-1]
		cut = true
	}
	if len(out.Lin) > 0 {
		out.Lin = out.Lin[:len(out.Lin)-1]
		cut = true
	}
	if len(out.Res) > 0 {
		out.Res = out.Res[:len(out.Res)-1]
		cut = true
	}
	if !cut && out.N != nil {
		out.N = nil
	}
	return &out
}

// garbleMessage returns a copy with every big integer replaced by zero —
// never a valid Paillier ciphertext or modulus — and every record handle
// of a compare request by −1, never a valid record.
func garbleMessage(m *smc.Message) *smc.Message {
	out := *m
	if m.Kind == smc.MsgCompare {
		out.Record = -1
		out.Records = make([]int, len(m.Records))
		for i := range out.Records {
			out.Records[i] = -1
		}
	}
	zero := func(xs []*big.Int) []*big.Int {
		if len(xs) == 0 {
			return xs
		}
		zs := make([]*big.Int, len(xs))
		for i := range zs {
			zs[i] = big.NewInt(0)
		}
		return zs
	}
	out.Sq = zero(m.Sq)
	out.Lin = zero(m.Lin)
	out.Res = zero(m.Res)
	if m.N != nil {
		out.N = big.NewInt(0)
	}
	return &out
}
