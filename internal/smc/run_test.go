package smc

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"pprl/internal/paillier"
)

// The run — consecutive pairs of one CompareBatch list that share Alice's
// record — is the protocol's unit: one request to each holder, one share
// set, one result frame per pair. These tests pin the verdicts to the
// plaintext oracle over adversarial pair lists and count the share sets
// on the wire.

// shareCounter wraps Bob's end of the peer link and counts the MsgShares
// frames he receives.
type shareCounter struct {
	Conn
	n *atomic.Int64
}

func (c shareCounter) Recv() (*Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Kind == MsgShares {
		c.n.Add(1)
	}
	return m, err
}

// startLanes hosts lanes parallel copies of the three-party protocol over
// in-memory links of the given frame buffer, the holders' engines shared
// as in NewLocalSecureSharded, and returns the query sessions as a
// ShardedComparator plus the count of share sets Bob has received.
func startLanes(t testing.TB, spec *Spec, alice, bob [][]int64, lanes, buffer, keyBits int) (*ShardedComparator, *atomic.Int64) {
	t.Helper()
	sk, err := paillier.GenerateKey(rand.Reader, keyBits)
	if err != nil {
		t.Fatal(err)
	}
	c := &ShardedComparator{aliceEng: &aliceEngine{}, bobEng: &bobEngine{}}
	shares := new(atomic.Int64)
	for l := 0; l < lanes; l++ {
		qa, aq := NewConnPairBuffer(buffer)
		qb, bq := NewConnPairBuffer(buffer)
		ab, ba := NewConnPairBuffer(buffer)
		c.conns = append(c.conns, qa, aq, qb, bq, ab, ba)
		c.wg.Add(2)
		go func() {
			defer c.wg.Done()
			c.record(runAlice(aq, ab, alice, spec, c.aliceEng))
		}()
		go func() {
			defer c.wg.Done()
			c.record(runBob(bq, shareCounter{ba, shares}, bob, spec, c.bobEng))
		}()
		session, err := newQuerySessionWithKey(qa, qb, spec, sk)
		if err != nil {
			t.Fatal(err)
		}
		c.sessions = append(c.sessions, session)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("closing lanes: %v", err)
		}
	})
	return c, shares
}

// wantShareSets is the test's own count of the runs CompareBatch must cut
// a list into: maximal stretches of one Alice record, none longer than
// half the window.
func wantShareSets(pairs [][2]int, window int) int64 {
	limit := max(window/2, 1)
	var runs int64
	for x, length := 0, 0; x < len(pairs); x++ {
		if x == 0 || pairs[x][0] != pairs[x-1][0] || length == limit {
			runs++
			length = 0
		}
		length++
	}
	return runs
}

// randomRunPairs builds a pair list out of stretches that share Alice's
// record — lengths around 1, half a window, a window and far beyond it —
// mixed with stretches that alternate between two of her records, which
// have no run longer than one. Records repeat freely on both sides.
func randomRunPairs(rng *mrand.Rand, na, nb, n int) [][2]int {
	lengths := []int{1, 1, 2, 3, 7, 8, 9, 15, 16, 17, 40}
	var pairs [][2]int
	for len(pairs) < n {
		i, length := rng.Intn(na), lengths[rng.Intn(len(lengths))]
		other := i
		if rng.Intn(4) == 0 {
			other = rng.Intn(na)
		}
		for x := 0; x < length; x++ {
			if x%2 == 1 {
				pairs = append(pairs, [2]int{other, rng.Intn(nb)})
			} else {
				pairs = append(pairs, [2]int{i, rng.Intn(nb)})
			}
		}
	}
	return pairs
}

func TestRunsMatchOracle(t *testing.T) {
	spec := testSpec()
	alice := shardedTestRecords(9, 21)
	bob := shardedTestRecords(11, 22)
	// The group walk is where the saving lives: at the default window
	// 9 × 11 pairs cost two share sets per Alice record, not eleven.
	if n := wantShareSets(allPairs(len(alice), len(bob)), defaultPipelineWindow); n != 18 {
		t.Fatalf("the test's splitter cuts the group walk into %d runs, want 18", n)
	}

	for _, eng := range []struct {
		name          string
		lanes, buffer int
	}{
		{"serial", 1, 64},
		{"sharded-3", 3, 64},
		{"buffer-1", 1, 1},
		{"buffer-5", 1, 5},
	} {
		t.Run(eng.name, func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(int64(eng.lanes*100 + eng.buffer)))
			cmp, shares := startLanes(t, spec, alice, bob, eng.lanes, eng.buffer, testKeyBits)
			window := cmp.sessions[0].window
			if want := min(eng.buffer, defaultPipelineWindow); window != want {
				t.Fatalf("window = %d, want %d", window, want)
			}
			var invocations, wantShares int64
			lists := [][][2]int{
				allPairs(len(alice), len(bob)), // a group walk: |A| runs of |B|
				{{3, 4}},
			}
			for r := 0; r < 4; r++ {
				lists = append(lists, randomRunPairs(rng, len(alice), len(bob), 60+rng.Intn(60)))
			}
			for _, pairs := range lists {
				got, err := cmp.CompareBatch(pairs)
				if err != nil {
					t.Fatalf("CompareBatch: %v", err)
				}
				if len(got) != len(pairs) {
					t.Fatalf("%d verdicts for %d pairs", len(got), len(pairs))
				}
				for k, p := range pairs {
					if want := spec.Matches(alice[p[0]], bob[p[1]]); got[k] != want {
						t.Errorf("pair %d %v: verdict %v, want %v", k, p, got[k], want)
					}
				}
				invocations += int64(len(pairs))
				// The lanes take contiguous stripes, each cut into runs on
				// its own.
				lanes := min(eng.lanes, len(pairs))
				stripe := (len(pairs) + lanes - 1) / lanes
				for lo := 0; lo < len(pairs); lo += stripe {
					wantShares += wantShareSets(pairs[lo:min(lo+stripe, len(pairs))], window)
				}
				if inv := cmp.Invocations(); inv != invocations {
					t.Fatalf("invocations = %d, want %d", inv, invocations)
				}
				if n := shares.Load(); n != wantShares {
					t.Fatalf("bob received %d share sets, want %d (one per run)", n, wantShares)
				}
			}
		})
	}
}

// TestQueryRejectsMisalignedResult: results are matched to requests by
// order, so the querying party checks every frame's echo — Bob's record
// and how many results of the run are still to come — and turns a shifted
// stream into an error instead of verdicts on the wrong pairs.
func TestQueryRejectsMisalignedResult(t *testing.T) {
	spec := testSpec()
	two := func() []*big.Int { return []*big.Int{big.NewInt(5), big.NewInt(5)} }
	for name, tc := range map[string]struct {
		pairs   [][2]int
		results []*Message
	}{
		"wrong record": {
			[][2]int{{0, 1}},
			[]*Message{{Kind: MsgResult, Record: 2, Res: two()}},
		},
		"short run": { // Bob answers two of three: the first frame already says so
			[][2]int{{0, 1}, {0, 2}, {0, 3}},
			[]*Message{{Kind: MsgResult, Record: 1, Left: 1, Res: two()}},
		},
		"long run": {
			[][2]int{{0, 1}, {0, 2}},
			[]*Message{{Kind: MsgResult, Record: 1, Left: 2, Res: two()}},
		},
	} {
		t.Run(name, func(t *testing.T) {
			qa, _ := NewConnPair() // alice's requests stay in the link's buffer
			qb, bq := NewConnPair()
			go func() {
				bq.Recv() // key
				bq.Recv() // the first run's request
				for _, m := range tc.results {
					bq.Send(m)
				}
			}()
			q, err := NewQuerySession(qa, qb, spec, testKeyBits)
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.CompareBatch(tc.pairs)
			if err == nil || !strings.Contains(err.Error(), "while waiting for") {
				t.Errorf("verdicts %v, error %v; want a misalignment error", got, err)
			}
			if q.Invocations() != 0 {
				t.Errorf("a rejected frame counted as %d invocations", q.Invocations())
			}
		})
	}
}

// TestTransportsCountTheSameBytes plays one conversation over the
// in-memory transport and over gob on a net.Conn: both are one gob stream
// per direction, so Bytes() agree exactly, and a repeated message costs
// its payload, not a second copy of the type descriptor.
func TestTransportsCountTheSameBytes(t *testing.T) {
	n := new(big.Int).Lsh(big.NewInt(1), 2047)
	forth := []*Message{
		{Kind: MsgPublicKey, N: n},
		{Kind: MsgCompare, Record: 3},
		{Kind: MsgCompare, Records: []int{4, 5, 6, 7}},
		{Kind: MsgCompare, Record: 3},
		{Kind: MsgShutdown},
	}
	back := []*Message{
		{Kind: MsgShares, Sq: []*big.Int{n, n}, Lin: []*big.Int{n, n}},
		{Kind: MsgResult, Record: 4, Left: 3, Res: []*big.Int{n}},
		{Kind: MsgResult, Record: 5, Left: 2, Res: []*big.Int{n}},
	}
	play := func(a, b Conn) (sentA, sentB, second int64) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			for range forth {
				if _, err := b.Recv(); err != nil {
					done <- err
					return
				}
			}
			for _, m := range back {
				if err := b.Send(m); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for x, m := range forth {
			before := a.Bytes()
			if err := a.Send(m); err != nil {
				t.Fatal(err)
			}
			if x == 3 {
				second = a.Bytes() - before
			}
		}
		for range back {
			if _, err := a.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return a.Bytes(), b.Bytes(), second
	}

	ca, cb := NewConnPair()
	chanA, chanB, chanSecond := play(ca, cb)
	pa, pb := net.Pipe()
	na, nb := NewNetConn(pa), NewNetConn(pb)
	defer na.Close()
	defer nb.Close()
	netA, netB, _ := play(na, nb)

	if chanA != netA || chanB != netB {
		t.Errorf("bytes sent: in-memory %d/%d, net.Conn %d/%d; want the same", chanA, chanB, netA, netB)
	}
	if chanSecond > 16 {
		t.Errorf("a repeated 2-field request cost %d bytes: the type descriptor is being re-sent", chanSecond)
	}
}
