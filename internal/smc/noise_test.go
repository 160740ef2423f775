package smc

import (
	"crypto/rand"
	"math/big"
	"testing"

	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/paillier"
	"pprl/internal/vgh"
)

// Which party draws which noise is a security property (PROTOCOL.md,
// "Security argument"), so it is pinned from the wire: ciphertexts whose
// noise comes from Alice's fixed-base source lie in the square subgroup
// and have Jacobi symbol (c mod N | N) = +1, ciphertexts carrying one of
// Bob's uniform r^N units have a uniform ±1.

func jacobiModN(c, n *big.Int) int {
	return big.Jacobi(new(big.Int).Mod(c, n), n)
}

// checkShares verifies one MsgShares of record rec: arity, plaintexts,
// Jacobi symbols, and that no ciphertext repeats one seen before.
func checkShares(t *testing.T, sk *paillier.PrivateKey, m *Message, rec []int64, active []int, seen map[string]bool) {
	t.Helper()
	if m.Kind != MsgShares || len(m.Sq) != len(active) || len(m.Lin) != len(active) {
		t.Fatalf("malformed shares message: kind %d, %d sq, %d lin", m.Kind, len(m.Sq), len(m.Lin))
	}
	for k, ai := range active {
		a := rec[ai]
		for name, c := range map[string]struct {
			ct   *big.Int
			want int64
		}{"Enc(a²)": {m.Sq[k], a * a}, "Enc(−2a)": {m.Lin[k], -2 * a}} {
			got, err := sk.DecryptSigned(&paillier.Ciphertext{C: c.ct})
			if err != nil {
				t.Fatalf("attr %d %s: %v", ai, name, err)
			}
			if got.Int64() != c.want {
				t.Errorf("attr %d %s decrypts to %v, want %d", ai, name, got, c.want)
			}
			if j := jacobiModN(c.ct, sk.N); j != 1 {
				t.Errorf("attr %d %s has Jacobi symbol %d: a unit from outside Alice's one noise source", ai, name, j)
			}
			if key := c.ct.String(); seen[key] {
				t.Errorf("attr %d %s repeats a ciphertext already sent for this record", ai, name)
			} else {
				seen[key] = true
			}
		}
	}
}

// TestAliceSharesOneNoiseSource: every run of one record gets a share set
// encrypted afresh — correct plaintexts, no ciphertext ever repeated, so
// two runs of a record are unlinkable — and every ciphertext has Jacobi
// symbol +1. A share carrying a uniform unit anywhere in its history would
// show a ±1 that Bob can compute without the key, so half of such
// ciphertexts fail here.
func TestAliceSharesOneNoiseSource(t *testing.T) {
	spec := testSpec()
	records := [][]int64{{2, -5, 9}, {1, 4, 0}}
	active := spec.activeAttrs()
	const requests = 12

	t.Run("serial", func(t *testing.T) {
		qa, ba, errs := startAlice(t, records, spec)
		sk := sendKey(t, qa)
		for rec := range records {
			seen := map[string]bool{}
			for r := 0; r < requests; r++ {
				if err := qa.Send(&Message{Kind: MsgCompare, Record: rec}); err != nil {
					t.Fatal(err)
				}
				m, err := ba.Recv()
				if err != nil {
					t.Fatal(err)
				}
				checkShares(t, sk, m, records[rec], active, seen)
			}
		}
		if err := qa.Send(&Message{Kind: MsgShutdown}); err != nil {
			t.Fatal(err)
		}
		if err := <-errs; err != nil {
			t.Fatalf("alice: %v", err)
		}
	})

	// Sharded: the lanes of one ShardedComparator share one engine and so
	// one source.
	t.Run("sharded", func(t *testing.T) {
		const lanes = 3
		sk, err := paillier.GenerateKey(rand.Reader, testKeyBits)
		if err != nil {
			t.Fatal(err)
		}
		eng := &aliceEngine{}
		errs := make(chan error, lanes)
		queries, bobs := make([]Conn, lanes), make([]Conn, lanes)
		for l := 0; l < lanes; l++ {
			qa, aq := NewConnPair()
			ab, ba := NewConnPair()
			queries[l], bobs[l] = qa, ba
			go func() { errs <- runAlice(aq, ab, records, spec, eng) }()
			if err := qa.Send(&Message{Kind: MsgPublicKey, N: sk.N}); err != nil {
				t.Fatal(err)
			}
		}
		for rec := range records {
			seen := map[string]bool{}
			for r := 0; r < requests; r++ {
				// All lanes hold a run of the record at once.
				for _, qa := range queries {
					if err := qa.Send(&Message{Kind: MsgCompare, Record: rec}); err != nil {
						t.Fatal(err)
					}
				}
				for _, ba := range bobs {
					m, err := ba.Recv()
					if err != nil {
						t.Fatal(err)
					}
					checkShares(t, sk, m, records[rec], active, seen)
				}
			}
		}
		for _, qa := range queries {
			if err := qa.Send(&Message{Kind: MsgShutdown}); err != nil {
				t.Fatal(err)
			}
		}
		for l := 0; l < lanes; l++ {
			if err := <-errs; err != nil {
				t.Fatalf("alice lane: %v", err)
			}
		}
	})
}

// The key owner's view must not depend on Alice's noise source: Bob's
// engine holds a RandomizerPool and nothing else (checked by the
// compiler here, by the wire below).
var _ = func(e *bobEngine) *paillier.RandomizerPool { return e.pool }

// TestBobResultsCarryUniformUnits: every MsgResult ciphertext is Bob's
// homomorphic combination of Alice's square-subgroup shares times one of
// Bob's own units — a fresh one per ciphertext, also inside a run, where
// all results grow from the same share set, and also when one ciphertext
// holds several pairs. With full-width uniform units the Jacobi symbols of
// one run's ciphertexts are fair coins; were Bob ever switched to the
// fixed-base source they would all be +1, and were he to draw one unit
// per run they would all be equal within it, at every slot geometry. The
// pool is drawn from once per ciphertext that crosses the link and for
// nothing else.
func TestBobResultsCarryUniformUnits(t *testing.T) {
	aliceRec, bobRec := []int64{2, -5, 9}, []int64{2, -3, 1}
	for _, tc := range []struct {
		name string
		spec func(*Spec)
		// perCiphertext is how many pairs share one of Bob's ciphertexts.
		perCiphertext int
	}{
		{"packed", func(*Spec) {}, 1},
		// 60-bit slots: two pairs of two values fill a 256-bit ciphertext.
		{"packed-across-the-run", func(s *Spec) { s.ValueBits = 7 }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec()
			tc.spec(spec)
			active := spec.activeAttrs()
			qb, bq := NewConnPair()
			ab, ba := NewConnPair()
			eng := &bobEngine{}
			defer eng.close()
			errs := make(chan error, 1)
			go func() { errs <- runBob(bq, ba, [][]int64{bobRec}, spec, eng) }()
			// A real query session reads Bob's results through the tap; the
			// test plays Alice on the peer link, and her query link is a
			// pair nobody reads (its frames stay within the conn's buffer).
			tap := &tapConn{Conn: qb}
			qa, _ := NewConnPair()
			sk, err := paillier.GenerateKey(rand.Reader, testKeyBits)
			if err != nil {
				t.Fatal(err)
			}
			q, err := newQuerySessionWithKey(qa, tap, spec, sk)
			if err != nil {
				t.Fatal(err)
			}
			noise, err := paillier.NewFixedBaseNoise(rand.Reader, sk.Public())
			if err != nil {
				t.Fatal(err)
			}
			want := spec.Matches(aliceRec, bobRec)

			// Every run is the one Alice record against the one Bob record,
			// as often as a run is long: same shares, same inputs, so the
			// results differ by Bob's blinds and units alone.
			const runs = 12 // 12 runs × ≥ 4 fair coins: no mixed run has probability 2^-36
			// The longest run the session opens, and the ciphertexts Bob
			// sends for it.
			run := make([][2]int, wantRunCap(q.window))
			perRun := (len(run) + tc.perCiphertext - 1) / tc.perCiphertext
			mixed := 0
			seen := map[string]bool{}
			for r := 0; r < runs; r++ {
				shares := &Message{Kind: MsgShares}
				for _, ai := range active {
					a := aliceRec[ai]
					sq, err := noise.EncryptInt64(a * a)
					if err != nil {
						t.Fatal(err)
					}
					lin, err := noise.EncryptInt64(-2 * a)
					if err != nil {
						t.Fatal(err)
					}
					shares.Sq, shares.Lin = append(shares.Sq, sq.C), append(shares.Lin, lin.C)
				}
				if err := ab.Send(shares); err != nil {
					t.Fatal(err)
				}
				tap.seen = nil
				got, err := q.CompareBatch(run)
				if err != nil {
					t.Fatal(err)
				}
				for x, v := range got {
					if v != want {
						t.Fatalf("run %d result %d: verdict %v, want %v", r, x, v, want)
					}
				}
				if len(tap.seen) != len(run) {
					t.Fatalf("run %d: %d result frames for %d pairs", r, len(tap.seen), len(run))
				}
				counts := map[int]int{}
				for _, m := range tap.seen {
					for _, c := range m.Res {
						counts[jacobiModN(c, sk.N)]++
						if key := c.String(); seen[key] {
							t.Error("two results carry the same ciphertext: a unit was reused")
						} else {
							seen[key] = true
						}
					}
				}
				if counts[1]+counts[-1] != perRun {
					t.Fatalf("run %d: Jacobi symbols %v, want %d ciphertexts with ±1", r, counts, perRun)
				}
				if counts[1] > 0 && counts[-1] > 0 {
					mixed++
				}
			}
			if mixed == 0 {
				t.Errorf("no run of %d shows both Jacobi symbols among its ciphertexts; want fair coins (a uniform unit per ciphertext)", runs)
			}
			if err := q.Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-errs; err != nil {
				t.Fatalf("bob: %v", err)
			}
			if draws := eng.pool.Draws(); draws != int64(runs*perRun) {
				t.Errorf("bob drew %d units from his pool for %d ciphertexts sent", draws, runs*perRun)
			}
		})
	}
}

// TestBobShufflesEveryShape: the spec every engine builds — SpecFromRule
// and BoundBySchema, as core.Link, incremental and the fleet do, nothing
// set on top — has Bob shuffle each pair's slots, so the querying party
// never learns which attribute failed. One pair that fails its first
// attribute only is compared 32 times and its values are read with the
// querying party's key: the failing value must land in both slots. A Bob
// that never shuffles fails always, a fair one with probability 2⁻³¹.
func TestBobShufflesEveryShape(t *testing.T) {
	edu := vgh.Flat("edu", "ANY", "a", "b", "c", "d")
	schema := dataset.MustSchema(dataset.CatAttr(edu), dataset.NumAttr(vgh.MustIntervalHierarchy("num", 0, 64, 2, 3)))
	qids := []int{0, 1}
	rule, err := blocking.RuleFor(schema, qids, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFromRule(rule, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.BoundBySchema(schema, qids)
	alice, bob := [][]int64{{0, 10}}, [][]int64{{1, 11}}
	if d := len(spec.activeAttrs()); d != 2 || spec.Matches(alice[0], bob[0]) || !spec.Matches([]int64{1, 10}, bob[0]) {
		t.Fatalf("want two active attributes and a pair failing the first only, got %+v", spec)
	}

	qa, aq := NewConnPair()
	qb, bq := NewConnPair()
	ab, ba := NewConnPair()
	errs := make(chan error, 2)
	go func() { errs <- RunAlice(aq, ab, alice, spec) }()
	go func() { errs <- RunBob(bq, ba, bob, spec) }()
	tap := &tapConn{Conn: qb}
	sk, err := paillier.GenerateKey(rand.Reader, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	q, err := newQuerySessionWithKey(qa, tap, spec, sk)
	if err != nil {
		t.Fatal(err)
	}
	const comparisons = 32
	failedIn := make([]int, 2) // how often each slot held the failing value
	for c := 0; c < comparisons; c++ {
		tap.seen = nil
		if match, err := q.Compare(0, 0); err != nil || match {
			t.Fatalf("comparison %d: %v, %v; want a non-match", c, match, err)
		}
		if len(tap.seen) != 1 || len(tap.seen[0].Res) != 1 {
			t.Fatalf("comparison %d: want one frame with one ciphertext, got %d frames", c, len(tap.seen))
		}
		vals, err := sk.UnpackSigned(&paillier.Ciphertext{C: tap.seen[0].Res[0]}, q.plan.pack, 2)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range vals {
			if v.Sign() >= 0 {
				failedIn[k]++
			}
		}
	}
	if failedIn[0]+failedIn[1] != comparisons {
		t.Fatalf("%v failing values in %d comparisons of a pair failing one attribute", failedIn, comparisons)
	}
	if failedIn[0] == 0 || failedIn[1] == 0 {
		t.Errorf("the failing value sat in slot 0 %d times and in slot 1 %d times: Bob does not shuffle", failedIn[0], failedIn[1])
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatalf("party loop: %v", err)
		}
	}
}

// tapConn remembers the messages received through it.
type tapConn struct {
	Conn
	seen []*Message
}

func (c *tapConn) Recv() (*Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.seen = append(c.seen, m)
	}
	return m, err
}
