package smc

import (
	"crypto/rand"
	"fmt"
	"runtime"
	"sync"

	"pprl/internal/paillier"
)

// ShardedComparator runs the three-party protocol in-process over W
// independent lanes: one Paillier key, W connection pairs per link, W
// Alice/Bob party loops, and W query sessions. CompareBatch stripes a pair
// list across the lanes so the crypto — Alice's 2d table-multiplied
// encryptions per run, Bob's d small exponentiations per pair, his packing
// and one full-width unit per result ciphertext, the querying party's
// decryption of it — runs on all cores instead of one goroutine. For a
// distributed deployment, run RunAlice/RunBob remotely over NewNetConn
// transports and drive a QuerySession directly.
//
// The lanes share the holders' crypto engines — Alice's noise table, Bob's
// randomizer pool — so each is built once per key. Verdicts are
// positionally aligned with the input pairs, Invocations and
// BytesTransferred aggregate across lanes, and every lane speaks the same
// protocol, run by run: W lanes are pinned to one by
// TestShardedMatchesSerial.
type ShardedComparator struct {
	sessions []*QuerySession
	conns    []Conn
	// bobSends are Bob's ends of every lane's query link; their sent
	// bytes sum to the MsgResult traffic.
	bobSends []Conn
	wg       sync.WaitGroup
	errMu    sync.Mutex
	partyErr error
}

// NewLocalSecure hosts all three parties in-process on one protocol lane
// under a fresh key of keyBits.
func NewLocalSecure(spec *Spec, alice, bob [][]int64, keyBits int) (*ShardedComparator, error) {
	return NewLocalSecureSharded(spec, alice, bob, keyBits, 1)
}

// NewLocalSecureSharded spawns workers lanes of in-process Alice/Bob
// loops under a single fresh key of keyBits. workers ≤ 0 selects
// GOMAXPROCS.
func NewLocalSecureSharded(spec *Spec, alice, bob [][]int64, keyBits, workers int) (*ShardedComparator, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := spec.CheckRecords(alice); err != nil {
		return nil, fmt.Errorf("smc: alice: %w", err)
	}
	if err := spec.CheckRecords(bob); err != nil {
		return nil, fmt.Errorf("smc: bob: %w", err)
	}
	sk, err := paillier.GenerateKey(rand.Reader, keyBits)
	if err != nil {
		return nil, fmt.Errorf("smc: generating key: %w", err)
	}
	// The lanes share one engine per holder.
	c, aliceEng, bobEng := &ShardedComparator{}, &aliceEngine{}, &bobEngine{}
	// All lanes' connections are created up front so record() can walk
	// c.conns without racing the construction loop's appends.
	type lane struct{ qa, aq, qb, bq, ab, ba Conn }
	lanes := make([]lane, workers)
	for w := range lanes {
		l := &lanes[w]
		l.qa, l.aq = NewConnPair() // query <-> alice, lane w
		l.qb, l.bq = NewConnPair() // query <-> bob, lane w
		l.ab, l.ba = NewConnPair() // alice <-> bob, lane w
		c.conns = append(c.conns, l.qa, l.aq, l.qb, l.bq, l.ab, l.ba)
		c.bobSends = append(c.bobSends, l.bq)
	}
	for w := 0; w < workers; w++ {
		l := lanes[w]
		c.wg.Add(2)
		go func() {
			defer c.wg.Done()
			c.record(runAlice(l.aq, l.ab, alice, spec, aliceEng))
		}()
		go func() {
			defer c.wg.Done()
			c.record(runBob(l.bq, l.ba, bob, spec, bobEng))
		}()
		session, err := newQuerySessionWithKey(l.qa, l.qb, spec, sk)
		if err != nil {
			// Party loops may still be waiting for a key; unblock them
			// before waiting so cleanup cannot deadlock.
			for _, conn := range c.conns {
				conn.Close()
			}
			c.wg.Wait()
			return nil, err
		}
		c.sessions = append(c.sessions, session)
	}
	return c, nil
}

// record stores the first party-loop error and tears every lane's
// connections down, so peers and in-flight query-side calls fail
// promptly instead of blocking on a dead party.
func (c *ShardedComparator) record(err error) {
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

// withPartyContext attaches the first party-loop error, if any, to a
// query-side failure.
func (c *ShardedComparator) withPartyContext(err error) error {
	c.errMu.Lock()
	pe := c.partyErr
	c.errMu.Unlock()
	if pe != nil {
		return fmt.Errorf("%w (party error: %v)", err, pe)
	}
	return err
}

// Workers returns the number of lanes.
func (c *ShardedComparator) Workers() int { return len(c.sessions) }

// Compare implements Comparator on lane 0.
func (c *ShardedComparator) Compare(i, j int) (bool, error) {
	match, err := c.sessions[0].Compare(i, j)
	if err != nil {
		return false, c.withPartyContext(err)
	}
	return match, nil
}

// CompareBatch lays the pair list out Alice-major and stripes it across
// the lanes in contiguous chunks, run concurrently. Alice-major — each of
// her records' pairs together, records in order of first occurrence, a
// record's pairs in list order — because a run of one Alice record costs
// one share set however many of Bob's records it holds: a list walked
// column by column (one Bob record against a stretch of hers) would cost a
// share set a pair. On a list that already is Alice-major, as a row-major
// walk is, the layout is the list itself. Contiguous, not interleaved: a
// lane sees the runs whole, and each of the W−1 cuts splits at most one of
// them. Verdicts are positionally aligned with pairs as given; the first
// lane's error (in lane order) wins.
func (c *ShardedComparator) CompareBatch(pairs [][2]int) ([]bool, error) {
	n := len(pairs)
	if n == 0 {
		return []bool{}, nil
	}
	laid, from := aliceMajor(pairs)
	lanes := len(c.sessions)
	if lanes > n {
		lanes = n
	}
	results := make([]bool, n)
	errs := make([]error, lanes)
	chunk := (n + lanes - 1) / lanes
	var wg sync.WaitGroup
	for s := 0; s < lanes; s++ {
		lo := s * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			out, err := c.sessions[s].CompareBatch(laid[lo:hi])
			if err != nil {
				errs[s] = err
				return
			}
			copy(results[lo:hi], out)
		}(s, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, c.withPartyContext(err)
		}
	}
	if from != nil {
		inOrder := make([]bool, n)
		for x, at := range from {
			inOrder[at] = results[x]
		}
		results = inOrder
	}
	return results, nil
}

// aliceMajor returns pairs laid out Alice-major, a stable regrouping by
// Alice's record in order of first occurrence, and from[x], the index in
// pairs of laid[x]. A list that already is Alice-major is returned as it
// is, with a nil from.
func aliceMajor(pairs [][2]int) (laid [][2]int, from []int) {
	group := make(map[int]int) // Alice's record → its group, numbered by first occurrence
	grouped := true
	for x, p := range pairs {
		if x > 0 && p[0] == pairs[x-1][0] {
			continue
		}
		if _, seen := group[p[0]]; seen {
			grouped = false
		} else {
			group[p[0]] = len(group)
		}
	}
	if grouped {
		return pairs, nil
	}
	next := make([]int, len(group)) // where each group's next pair goes
	for _, p := range pairs {
		if g := group[p[0]]; g+1 < len(next) {
			next[g+1]++
		}
	}
	for g := 1; g < len(next); g++ {
		next[g] += next[g-1]
	}
	laid, from = make([][2]int, len(pairs)), make([]int, len(pairs))
	for x, p := range pairs {
		g := group[p[0]]
		laid[next[g]], from[next[g]] = p, x
		next[g]++
	}
	return laid, from
}

// Invocations implements Comparator: the sum over all lanes.
func (c *ShardedComparator) Invocations() int64 {
	var total int64
	for _, s := range c.sessions {
		total += s.Invocations()
	}
	return total
}

// BytesTransferred sums traffic across every lane's connections.
func (c *ShardedComparator) BytesTransferred() int64 {
	var total int64
	for _, conn := range c.conns {
		total += conn.Bytes()
	}
	return total
}

// ResultBytes sums the bytes Bob sent to the querying party across all
// lanes: the MsgResult traffic, the component response packing
// compresses.
func (c *ShardedComparator) ResultBytes() int64 {
	var total int64
	for _, conn := range c.bobSends {
		total += conn.Bytes()
	}
	return total
}

// Decryptions sums the querying party's Paillier decryptions over all
// lanes.
func (c *ShardedComparator) Decryptions() int64 {
	var total int64
	for _, s := range c.sessions {
		total += s.Decryptions()
	}
	return total
}

// Close shuts every lane down, waits for the party loops — Bob's release
// the shared randomizer pool as they end — and closes the connections.
func (c *ShardedComparator) Close() error {
	var err error
	for _, s := range c.sessions {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
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
