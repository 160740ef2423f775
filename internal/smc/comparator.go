package smc

import (
	"fmt"
	"slices"
	"sync"
)

// Comparator answers "does Alice's record i match Bob's record j?" for
// pairs the blocking step could not decide. Implementations count
// invocations, the paper's cost unit (Section VI restricts the cost model
// to the number of SMC protocol invocations). Comparators are not safe
// for concurrent use.
type Comparator interface {
	// Compare resolves one record pair.
	Compare(i, j int) (bool, error)
	// Invocations returns the number of comparisons performed so far.
	Invocations() int64
	// BytesTransferred returns total protocol traffic; zero for the
	// plaintext oracle.
	BytesTransferred() int64
	// Close releases protocol resources.
	Close() error
}

// BatchComparator is the pipelined purchase path the secure engines
// (SecureComparator, ShardedComparator, QuerySession, the distributed
// pool's comparator) offer beside Compare: verdict i answers pairs[i].
// Consecutive pairs that share Alice's record are bought as one run — one
// share set from Alice for all of them — so a caller walking A × B should
// hand the pairs over in walk order. Callers discover the path by type
// assertion and fall back to Compare.
type BatchComparator interface {
	CompareBatch(pairs [][2]int) ([]bool, error)
}

// PlainComparator is the plaintext oracle: it evaluates exactly the
// integer arithmetic of the secure circuit (Spec.Matches) with zero
// cryptographic cost. Experiments at paper scale use it while charging
// the cost model per invocation; TestSecureMatchesPlain pins its answers
// to the real protocol's.
type PlainComparator struct {
	spec        *Spec
	alice, bob  [][]int64
	invocations int64
	verdicts    []bool
}

// NewPlainComparator builds the oracle over both holders' encoded records.
func NewPlainComparator(spec *Spec, alice, bob [][]int64) *PlainComparator {
	return &PlainComparator{spec: spec, alice: alice, bob: bob}
}

// Compare implements Comparator.
func (p *PlainComparator) Compare(i, j int) (bool, error) {
	if i < 0 || i >= len(p.alice) || j < 0 || j >= len(p.bob) {
		return false, fmt.Errorf("smc: pair (%d,%d) out of range", i, j)
	}
	p.invocations++
	return p.spec.Matches(p.alice[i], p.bob[j]), nil
}

// CompareBatch implements BatchComparator. The whole list is range-checked
// before anything is counted, and Alice's record is looked up once per run
// of pairs sharing it. The verdicts are only valid until the next call.
func (p *PlainComparator) CompareBatch(pairs [][2]int) ([]bool, error) {
	for _, pr := range pairs {
		if pr[0] < 0 || pr[0] >= len(p.alice) || pr[1] < 0 || pr[1] >= len(p.bob) {
			return nil, fmt.Errorf("smc: pair (%d,%d) out of range", pr[0], pr[1])
		}
	}
	p.verdicts = slices.Grow(p.verdicts[:0], len(pairs))[:len(pairs)]
	var row []int64
	for x, last := 0, -1; x < len(pairs); x++ {
		if pairs[x][0] != last {
			last = pairs[x][0]
			row = p.alice[last]
		}
		p.verdicts[x] = p.spec.Matches(row, p.bob[pairs[x][1]])
	}
	p.invocations += int64(len(pairs))
	return p.verdicts, nil
}

// Invocations implements Comparator.
func (p *PlainComparator) Invocations() int64 { return p.invocations }

// BytesTransferred implements Comparator: the oracle moves no bytes.
func (p *PlainComparator) BytesTransferred() int64 { return 0 }

// Close implements Comparator.
func (p *PlainComparator) Close() error { return nil }

// SecureComparator runs the full three-party protocol. NewLocalSecure
// hosts all three parties in-process over in-memory connections; for a
// distributed deployment, run RunAlice/RunBob remotely over NewNetConn
// transports and drive a QuerySession directly.
type SecureComparator struct {
	session *QuerySession
	conns   []Conn
	// bobSend is Bob's end of the query link; its sent-byte counter is
	// exactly the MsgResult traffic packing compresses.
	bobSend  Conn
	wg       sync.WaitGroup
	errMu    sync.Mutex
	partyErr error
}

// NewLocalSecure spawns Alice and Bob as goroutines over in-memory
// connections and opens a query session with a fresh key of keyBits.
func NewLocalSecure(spec *Spec, alice, bob [][]int64, keyBits int) (*SecureComparator, error) {
	if err := spec.checkRecords(alice); err != nil {
		return nil, fmt.Errorf("smc: alice: %w", err)
	}
	if err := spec.checkRecords(bob); err != nil {
		return nil, fmt.Errorf("smc: bob: %w", err)
	}
	qa, aq := NewConnPair() // query <-> alice
	qb, bq := NewConnPair() // query <-> bob
	ab, ba := NewConnPair() // alice <-> bob
	c := &SecureComparator{conns: []Conn{qa, aq, qb, bq, ab, ba}, bobSend: bq}
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		c.record(RunAlice(aq, ab, alice, spec))
	}()
	go func() {
		defer c.wg.Done()
		c.record(RunBob(bq, ba, bob, spec))
	}()
	session, err := NewQuerySession(qa, qb, spec, keyBits)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.session = session
	return c, nil
}

// record stores the first party-loop error and tears the connections
// down, so the peers and any in-flight query-side call fail promptly
// instead of blocking on a dead party.
func (c *SecureComparator) record(err error) {
	if err == nil {
		return
	}
	c.errMu.Lock()
	if c.partyErr == nil {
		c.partyErr = err
	}
	c.errMu.Unlock()
	for _, conn := range c.conns {
		conn.Close()
	}
}

// Compare implements Comparator: a batch of one.
func (c *SecureComparator) Compare(i, j int) (bool, error) {
	out, err := c.CompareBatch([][2]int{{i, j}})
	if err != nil {
		return false, err
	}
	return out[0], nil
}

// CompareBatch resolves many pairs run by run with request pipelining
// (see QuerySession.CompareBatch); the linkage engine uses it when
// available.
func (c *SecureComparator) CompareBatch(pairs [][2]int) ([]bool, error) {
	out, err := c.session.CompareBatch(pairs)
	if err != nil {
		c.errMu.Lock()
		pe := c.partyErr
		c.errMu.Unlock()
		if pe != nil {
			return nil, fmt.Errorf("%w (party error: %v)", err, pe)
		}
		return nil, err
	}
	return out, nil
}

// Invocations implements Comparator.
func (c *SecureComparator) Invocations() int64 {
	if c.session == nil {
		return 0
	}
	return c.session.Invocations()
}

// BytesTransferred sums traffic across all protocol connections.
func (c *SecureComparator) BytesTransferred() int64 {
	var total int64
	for _, conn := range c.conns {
		total += conn.Bytes()
	}
	return total
}

// ResultBytes returns the bytes Bob sent to the querying party: the
// MsgResult traffic, the component response packing compresses.
func (c *SecureComparator) ResultBytes() int64 { return c.bobSend.Bytes() }

// Decryptions returns the querying party's total Paillier decryptions.
func (c *SecureComparator) Decryptions() int64 {
	if c.session == nil {
		return 0
	}
	return c.session.Decryptions()
}

// Close implements Comparator: shuts the parties down and waits for them.
func (c *SecureComparator) Close() error {
	var err error
	if c.session != nil {
		err = c.session.Close()
	} else {
		// No session means the parties never got a key; unblock them.
		for _, conn := range c.conns {
			conn.Close()
		}
	}
	c.wg.Wait()
	for _, conn := range c.conns {
		conn.Close()
	}
	c.errMu.Lock()
	pe := c.partyErr
	c.errMu.Unlock()
	if err == nil {
		err = pe
	}
	return err
}
