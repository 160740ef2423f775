package smc

import (
	"cmp"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"net"
	"slices"
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
	c, aliceEng, bobEng := &ShardedComparator{}, &aliceEngine{}, &bobEngine{}
	shares := new(atomic.Int64)
	for l := 0; l < lanes; l++ {
		qa, aq := NewConnPairBuffer(buffer)
		qb, bq := NewConnPairBuffer(buffer)
		ab, ba := NewConnPairBuffer(buffer)
		c.conns = append(c.conns, qa, aq, qb, bq, ab, ba)
		c.wg.Add(2)
		go func() {
			defer c.wg.Done()
			c.record(runAlice(aq, ab, alice, spec, aliceEng))
		}()
		go func() {
			defer c.wg.Done()
			c.record(runBob(bq, shareCounter{ba, shares}, bob, spec, bobEng))
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

// wantRunCap is the test's own statement of the longest run a session of
// the given window opens: half the window, at least one pair, never more
// than the cap Bob enforces.
func wantRunCap(window int) int {
	return min(max(window/2, 1), maxRun)
}

// wantShareSets is the test's own count of the runs CompareBatch must cut
// a list into: maximal stretches of one Alice record, none longer than
// wantRunCap(window).
func wantShareSets(pairs [][2]int, window int) int64 {
	limit := wantRunCap(window)
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

// aliceMajorRef is the test's own Alice-major layout: a stable sort by the
// place of each pair's Alice record's first occurrence.
func aliceMajorRef(pairs [][2]int) [][2]int {
	first := make(map[int]int)
	for x, p := range pairs {
		if _, ok := first[p[0]]; !ok {
			first[p[0]] = x
		}
	}
	laid := slices.Clone(pairs)
	slices.SortStableFunc(laid, func(x, y [2]int) int { return cmp.Compare(first[x[0]], first[y[0]]) })
	return laid
}

// TestColumnListsRegroup: the same pairs listed row by row and column by
// column — as a live bob-side batch walks them — get the same verdicts, in
// the order each list gives them, and cost the same share sets on one lane
// and on two, because CompareBatch lays both out Alice-major.
func TestColumnListsRegroup(t *testing.T) {
	spec := testSpec()
	alice := shardedTestRecords(7, 31)
	bob := shardedTestRecords(3, 32)
	rows := allPairs(len(alice), len(bob))
	var cols [][2]int
	for j := range bob {
		for i := range alice {
			cols = append(cols, [2]int{i, j})
		}
	}
	for _, lanes := range []int{1, 2} {
		c, shares := startLanes(t, spec, alice, bob, lanes, 64, testKeyBits)
		var spent [2]int64
		for k, pairs := range [][][2]int{rows, cols} {
			before := shares.Load()
			got, err := c.CompareBatch(pairs)
			if err != nil {
				t.Fatal(err)
			}
			for x, p := range pairs {
				if want := spec.Matches(alice[p[0]], bob[p[1]]); got[x] != want {
					t.Fatalf("%d lanes, list %d: pair %d %v answered %v, want %v", lanes, k, x, p, got[x], want)
				}
			}
			spent[k] = shares.Load() - before
		}
		if spent[0] != spent[1] || spent[0] > int64(len(alice)+lanes-1) {
			t.Errorf("%d lanes: the row-major list cost %d share sets, the column-major one %d; want one a record of Alice's (a lane cut may split one)",
				lanes, spent[0], spent[1])
		}
	}
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
	// 9 × 11 pairs cost ⌈11/cap⌉ share sets per Alice record (one), not
	// eleven.
	limit := wantRunCap(defaultPipelineWindow)
	want := int64(len(alice) * ((len(bob) + limit - 1) / limit))
	if n := wantShareSets(allPairs(len(alice), len(bob)), defaultPipelineWindow); n != want {
		t.Fatalf("the test's splitter cuts the group walk into %d runs, want %d", n, want)
	}

	t.Run("frame-plan", testRunFramePlan)

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
				// The lanes take contiguous stripes of the list laid out
				// Alice-major, each cut into runs on its own.
				laid := aliceMajorRef(pairs)
				lanes := min(eng.lanes, len(laid))
				stripe := (len(laid) + lanes - 1) / lanes
				for lo := 0; lo < len(laid); lo += stripe {
					wantShares += wantShareSets(laid[lo:min(lo+stripe, len(laid))], window)
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

// planSpec is a spec of d active attributes, equality and threshold
// circuits alternating, at the given value bound.
func planSpec(d, valueBits int) *Spec {
	spec := &Spec{Scale: 1, ValueBits: valueBits}
	for k := 0; k < d; k++ {
		if k%2 == 0 {
			spec.Attrs = append(spec.Attrs, AttrSpec{Mode: ModeEquality})
		} else {
			spec.Attrs = append(spec.Attrs, AttrSpec{Mode: ModeThreshold, T: 16})
		}
	}
	return spec
}

// wantCiphertexts is the test's own statement of the frame plan: how many
// ciphertexts the frame of a run's pair x carries, n pairs in the run, d
// values per pair, slots per ciphertext. A ciphertext is filled with whole
// pairs and sent with the last of them; a pair too wide for one ciphertext
// gets ⌈d/slots⌉ of its own.
func wantCiphertexts(x, n, d, slots int) int {
	g := slots / d
	if g <= 1 {
		return (d + slots - 1) / slots
	}
	if (x+1)%g == 0 || x == n-1 {
		return 1
	}
	return 0
}

// testRunFramePlan walks every run length the protocol allows through
// every slot geometry — several pairs per ciphertext, exactly one (the
// per-pair form: every frame carries its own pair's ⌈d/slots⌉ ciphertexts,
// as before run-major packing), and several ciphertexts per pair — and
// pins verdicts to the oracle, the frames to one per pair in list order
// with the (Record, Left) echo, and the ciphertexts on every frame to the
// plan.
func testRunFramePlan(t *testing.T) {
	rng := mrand.New(mrand.NewSource(16))
	const n = maxRun
	for _, geo := range []struct{ keyBits, valueBits int }{
		{512, DefaultValueBits}, // 106-bit slots, 4 per ciphertext: d ≥ 5 chunks, d = 3, 4 is per-pair
		{1024, 7},               // 60-bit slots, 17 per ciphertext: the Adult geometry
	} {
		sk, err := paillier.GenerateKey(rand.Reader, geo.keyBits)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d <= 8; d++ {
			// Bob holds Alice's records, every other one perturbed: pairs of
			// equal handles match or narrowly miss.
			alice, bob := make([][]int64, n), make([][]int64, n)
			for i := range alice {
				alice[i], bob[i] = make([]int64, d), make([]int64, d)
				for k := range alice[i] {
					alice[i][k] = int64(rng.Intn(7) - 3)
					bob[i][k] = alice[i][k] + int64(i%2*rng.Intn(3)*(k%2*4+1))
				}
			}
			// One run of every length 1…maxRun, each on its own record of
			// Alice's, each meeting the record that may match it.
			var pairs [][2]int
			var runOf []int // the length of the run a pair belongs to
			for length := 1; length <= n; length++ {
				for x := 0; x < length; x++ {
					pairs = append(pairs, [2]int{length - 1, (length - 1 + x) % n})
					runOf = append(runOf, length)
				}
			}
			spec := planSpec(d, geo.valueBits)
			plan, err := spec.resultPlan(geo.keyBits)
			if err != nil {
				t.Fatal(err)
			}
			slots := plan.pack.Slots
			qa, aq := NewConnPair()
			qb, bq := NewConnPair()
			ab, ba := NewConnPair()
			errs := make(chan error, 2)
			go func() { errs <- RunAlice(aq, ab, alice, spec) }()
			go func() { errs <- RunBob(bq, ba, bob, spec) }()
			tap := &tapConn{Conn: qb}
			q, err := newQuerySessionWithKey(qa, tap, spec, sk)
			if err != nil {
				t.Fatal(err)
			}
			// The links hold 64 frames, so the session's window is the
			// default, whose runs reach the protocol's cap.
			if wantRunCap(q.window) != n {
				t.Fatalf("window %d cuts runs at %d, want %d", q.window, wantRunCap(q.window), n)
			}
			got, err := q.CompareBatch(pairs)
			if err != nil {
				t.Fatalf("%d bits, d=%d: %v", geo.keyBits, d, err)
			}
			if len(tap.seen) != len(pairs) {
				t.Fatalf("%d bits, d=%d: %d result frames for %d pairs", geo.keyBits, d, len(tap.seen), len(pairs))
			}
			var sent int64
			matches := 0
			for k, p := range pairs {
				if want := spec.Matches(alice[p[0]], bob[p[1]]); got[k] != want {
					t.Errorf("%d bits, d=%d, pair %d %v: verdict %v, want %v", geo.keyBits, d, k, p, got[k], want)
				} else if want {
					matches++
				}
				x := k - runOf[k]*(runOf[k]-1)/2 // runs of 1, 2, … precede this one
				m := tap.seen[k]
				if m.Record != p[1] || m.Left != runOf[k]-1-x {
					t.Fatalf("frame %d echoes record %d with %d to follow, want %d with %d", k, m.Record, m.Left, p[1], runOf[k]-1-x)
				}
				if want := wantCiphertexts(x, runOf[k], d, slots); len(m.Res) != want {
					t.Errorf("%d bits, d=%d (%d slots): pair %d of a run of %d carries %d ciphertexts, want %d",
						geo.keyBits, d, slots, x, runOf[k], len(m.Res), want)
				}
				sent += int64(len(m.Res))
			}
			if matches == 0 || matches == len(pairs) {
				t.Errorf("d=%d: %d of %d pairs match; the list should show both verdicts", d, matches, len(pairs))
			}
			if q.Invocations() != int64(len(pairs)) || q.Decryptions() != sent {
				t.Errorf("%d bits, d=%d: %d invocations and %d decryptions for %d pairs and %d ciphertexts",
					geo.keyBits, d, q.Invocations(), q.Decryptions(), len(pairs), sent)
			}
			if err := q.Close(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil {
					t.Errorf("party loop: %v", err)
				}
			}
		}
	}
}

// TestQueryRejectsMisalignedResult: results are matched to requests by
// order, so the querying party checks every frame's echo — Bob's record
// and how many results of the run are still to come — and turns a shifted
// stream into an error instead of verdicts on the wrong pairs.
func TestQueryRejectsMisalignedResult(t *testing.T) {
	two := func() []*big.Int { return []*big.Int{big.NewInt(5), big.NewInt(5)} }
	one := func() []*big.Int { return []*big.Int{big.NewInt(5)} }
	// Two active attributes in 60-bit slots, four to the test key's
	// ciphertext: two pairs share one, and the first frame of a run of two
	// is empty.
	grouped := testSpec()
	grouped.ValueBits = 7
	if plan, err := grouped.resultPlan(testKeyBits); err != nil || plan.group != 2 {
		t.Fatalf("grouped plan %+v, %v; want two pairs per ciphertext", plan, err)
	}
	// Five in 106-bit slots, two to a ciphertext: three ciphertexts per pair.
	chunked := planSpec(5, DefaultValueBits)
	if plan, err := chunked.resultPlan(testKeyBits); err != nil || plan.pack.Ciphertexts(plan.d) != 3 {
		t.Fatalf("chunked plan %+v, %v; want three ciphertexts per pair", plan, err)
	}
	const misaligned, malformed = "while waiting for", "malformed result"
	for name, tc := range map[string]struct {
		spec    *Spec
		pairs   [][2]int
		results []*Message
		want    string
	}{
		"wrong record": {
			testSpec(), [][2]int{{0, 1}},
			[]*Message{{Kind: MsgResult, Record: 2, Res: two()}}, misaligned,
		},
		"short run": { // Bob answers two of three: the first frame already says so
			testSpec(), [][2]int{{0, 1}, {0, 2}, {0, 3}},
			[]*Message{{Kind: MsgResult, Record: 1, Left: 1, Res: two()}}, misaligned,
		},
		"long run": {
			testSpec(), [][2]int{{0, 1}, {0, 2}},
			[]*Message{{Kind: MsgResult, Record: 1, Left: 2, Res: two()}}, misaligned,
		},
		"ciphertext on an empty frame": { // one pair too early
			grouped, [][2]int{{0, 1}, {0, 2}},
			[]*Message{{Kind: MsgResult, Record: 1, Left: 1, Res: one()}}, malformed,
		},
		"ciphertext on the wrong frame": { // held back past the pair that fills it
			grouped, [][2]int{{0, 1}, {0, 2}, {0, 3}},
			[]*Message{{Kind: MsgResult, Record: 1, Left: 2}, {Kind: MsgResult, Record: 2, Left: 1}}, malformed,
		},
		"none on the last frame": { // the run ends with two pairs owed theirs
			grouped, [][2]int{{0, 1}, {0, 2}},
			[]*Message{{Kind: MsgResult, Record: 1, Left: 1}, {Kind: MsgResult, Record: 2, Left: 0}}, malformed,
		},
		"short Res": { // two of a pair's three ciphertexts
			chunked, [][2]int{{0, 1}},
			[]*Message{{Kind: MsgResult, Record: 1, Res: two()}}, malformed,
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
			q, err := NewQuerySession(qa, qb, tc.spec, testKeyBits)
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.CompareBatch(tc.pairs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("verdicts %v, error %v; want a %q error", got, err, tc.want)
			}
			if q.Invocations() != 0 {
				t.Errorf("a rejected frame counted as %d invocations", q.Invocations())
			}
		})
	}
}

// TestTransportsCountTheSameBytes plays one conversation over the
// in-memory transport and over a net.Conn: both send the same wire frames,
// so Bytes() agree exactly, and a repeated message costs its payload and a
// three-byte header.
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
