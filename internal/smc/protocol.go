package smc

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"

	"pprl/internal/paillier"
)

// MsgKind discriminates protocol messages.
type MsgKind int

const (
	// MsgPublicKey carries the querying party's Paillier modulus to the
	// data holders.
	MsgPublicKey MsgKind = iota
	// MsgCompare opens a run: the comparisons of one of Alice's records
	// against n ≥ 1 of Bob's. Alice's copy names her record, Bob's copy
	// lists his n.
	MsgCompare
	// MsgShares carries Alice's encrypted shares Enc(a²), Enc(−2a) per
	// active attribute to Bob, once per run.
	MsgShares
	// MsgResult answers one record of the run to the querying party: n
	// frames per run, in list order. Under packing a ciphertext holds the
	// values of several consecutive pairs and rides on the frame of the
	// last of them; the frames before it carry no ciphertext.
	MsgResult
	// MsgShutdown ends a party's loop.
	MsgShutdown
	// MsgHello identifies a connecting party to the querying party
	// (used by the full-session layer).
	MsgHello
	// MsgParams carries the querying party's public classifier
	// parameters (QID names + circuit spec) to the data holders.
	MsgParams
	// MsgView carries a data holder's serialized anonymized view.
	MsgView
)

// Message is the single wire format; fields are used according to Kind,
// and Code declares which ones each kind carries.
type Message struct {
	Kind MsgKind
	// N is the public modulus (MsgPublicKey).
	N *big.Int
	// Record is Alice's record of the run (her MsgCompare), or the record
	// of Bob's a result answers (MsgResult).
	Record int
	// Records are Bob's records of the run, in verdict order (his
	// MsgCompare): between 1 and maxRun handles.
	Records []int
	// Left is how many results of the run are still to follow this one
	// (MsgResult). Results are matched to requests by order alone, so the
	// querying party rejects a frame whose Record and Left are not the
	// ones it is waiting for: a lost, extra or misrouted frame is an
	// error, never a verdict on the wrong pair.
	Left int
	// Sq and Lin are Alice's Enc(aᵢ²) and Enc(−2aᵢ), one per active
	// (non-ModeAlways) attribute, in spec order (MsgShares).
	Sq, Lin []*big.Int
	// Res are Bob's output ciphertexts (MsgResult): what the spec's result
	// plan puts on this frame — the packed values of this pair and the
	// ones before it, or nothing.
	Res []*big.Int
	// Role identifies the sender (MsgHello): "alice" or "bob".
	Role string
	// QIDs are the quasi-identifier attribute names of the classifier
	// (MsgParams).
	QIDs []string
	// Spec is the circuit description all parties share (MsgParams).
	Spec *Spec
	// View is a serialized anonymized view (MsgView).
	View []byte
}

// blindBits is the size of the multiplicative blinding factor ρ; δ noise
// is drawn below ρ. 2^40 keeps ρ·(d²−T) far below N/2 even for 256-bit
// test keys while hiding the raw distance from the querying party.
const blindBits = 40

// activeAttrs lists the spec attribute indexes that exchange ciphertexts.
func (s *Spec) activeAttrs() []int {
	var out []int
	for i, a := range s.Attrs {
		if a.Mode != ModeAlways {
			out = append(out, i)
		}
	}
	return out
}

// forEachAttr runs f(0)..f(n-1), concurrently when n > 1, and returns the
// first error. Each attribute's ciphertext work inside one protocol step
// is independent, so the per-attribute exponentiations of a multi-QID
// comparison spread across cores.
func forEachAttr(n int, f func(k int) error) error {
	if n == 0 {
		return nil
	}
	if n == 1 {
		return f(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for k := 0; k < n; k++ {
		go func(k int) {
			defer wg.Done()
			errs[k] = f(k)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// aliceEngine is the first data holder's crypto state: the fixed-base
// noise source every share is encrypted from. Enc(a²) and Enc(−2a) are
// encrypted afresh for every run — with the table a fresh encryption
// costs the one unit a rerandomization would — so repeated transmissions
// of one record stay unlinkable on the wire and one noise source per
// party holds by construction.
//
// Alice's ciphertexts go to key-less Bob only, and everything Bob
// forwards to the key owner carries one of Bob's own uniform units, so
// the short-exponent units never reach a party the factoring-based
// argument does not bind (PROTOCOL.md).
//
// One engine may be shared by several runAlice loops (the sharded
// comparator runs W loops over the same records), so every method is safe
// for concurrent use.
type aliceEngine struct {
	mu    sync.Mutex
	pk    *paillier.PublicKey
	noise *paillier.FixedBaseNoise
}

// init installs the session key on first call and builds the noise table
// for it; later calls (parallel loops of a sharded session) must present
// the same modulus.
func (e *aliceEngine) init(pk *paillier.PublicKey) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pk != nil {
		if e.pk.N.Cmp(pk.N) != 0 {
			return fmt.Errorf("public key mismatch across parallel loops")
		}
		return nil
	}
	noise, err := paillier.NewFixedBaseNoise(rand.Reader, pk)
	if err != nil {
		return err
	}
	e.pk, e.noise = pk, noise
	return nil
}

// bobEngine is the second data holder's crypto state: the randomizer pool
// feeding Rerandomize. Shareable by parallel runBob loops. Its units are
// full-width uniform r^N — never the fixed-base source: Bob's ciphertexts
// go to the key owner, who can tell a subgroup from the whole group.
type bobEngine struct {
	mu   sync.Mutex
	pk   *paillier.PublicKey
	pool *paillier.RandomizerPool
}

func (e *bobEngine) init(pk *paillier.PublicKey) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pk != nil {
		if e.pk.N.Cmp(pk.N) != 0 {
			return fmt.Errorf("public key mismatch across parallel loops")
		}
		return nil
	}
	e.pk = pk
	e.pool = paillier.NewRandomizerPool(pk, 0, 0)
	return nil
}

func (e *bobEngine) close() {
	e.mu.Lock()
	pool := e.pool
	e.mu.Unlock()
	if pool != nil {
		pool.Close()
	}
}

// RunAlice is the first data holder's protocol loop: for every run the
// querying party opens on one of her records she sends Bob one freshly
// encrypted share set. It returns when it receives MsgShutdown or its
// connections close.
func RunAlice(query, bob Conn, records [][]int64, spec *Spec) error {
	return runAlice(query, bob, records, spec, &aliceEngine{})
}

// runAlice serves one query link with a possibly shared engine.
func runAlice(query, bob Conn, records [][]int64, spec *Spec, eng *aliceEngine) error {
	pk, err := receiveKey(query)
	if err != nil {
		return fmt.Errorf("smc: alice: %w", err)
	}
	if err := eng.init(pk); err != nil {
		return fmt.Errorf("smc: alice: %w", err)
	}
	if err := spec.CheckRecords(records); err != nil {
		return fmt.Errorf("smc: alice: %w", err)
	}
	active := spec.activeAttrs()
	for {
		m, err := query.Recv()
		if err != nil {
			return fmt.Errorf("smc: alice: receiving request: %w", err)
		}
		switch m.Kind {
		case MsgShutdown:
			return nil
		case MsgCompare:
		default:
			return fmt.Errorf("smc: alice: unexpected message kind %d", m.Kind)
		}
		if m.Record < 0 || m.Record >= len(records) {
			return fmt.Errorf("smc: alice: record %d out of range", m.Record)
		}
		rec := records[m.Record]
		out := &Message{Kind: MsgShares, Sq: make([]*big.Int, len(active)), Lin: make([]*big.Int, len(active))}
		if err := forEachAttr(len(active), func(k int) error {
			// a² and −2a are taken exactly: both leave int64 once |a|
			// passes 2^31.5 and 2^62.
			a := big.NewInt(rec[active[k]])
			sq, err := eng.noise.Encrypt(new(big.Int).Mod(new(big.Int).Mul(a, a), pk.N))
			if err != nil {
				return fmt.Errorf("encrypting a²: %w", err)
			}
			lin, err := eng.noise.Encrypt(a.Mod(a.Lsh(a, 1).Neg(a), pk.N))
			if err != nil {
				return fmt.Errorf("encrypting −2a: %w", err)
			}
			out.Sq[k], out.Lin[k] = sq.C, lin.C
			return nil
		}); err != nil {
			return fmt.Errorf("smc: alice: %w", err)
		}
		if err := bob.Send(out); err != nil {
			return fmt.Errorf("smc: alice: sending shares: %w", err)
		}
	}
}

// RunBob is the second data holder's protocol loop: for every run it
// combines Alice's one share set with each listed record of his own
// homomorphically into the sign-only blinding ρ·((a−b)² − T − 1) + δ per
// attribute, 0 ≤ δ < ρ, so the querying party learns only whether each
// squared distance is within its threshold — and, the slots of a pair
// being shuffled, not which attribute's. Every record gets its own result
// frame, blinds and shuffle, and every ciphertext that crosses the query
// link its own uniform unit.
func RunBob(query, alice Conn, records [][]int64, spec *Spec) error {
	return runBob(query, alice, records, spec, &bobEngine{})
}

// runBob serves one query link with a possibly shared engine. The loop
// stops the engine's refill workers as it ends — loops end together, at
// shutdown or on the first party error, and a pool stays usable closed —
// rather than leave them competing for a core until every other loop of
// the comparator is done.
func runBob(query, alice Conn, records [][]int64, spec *Spec, eng *bobEngine) error {
	pk, err := receiveKey(query)
	if err != nil {
		return fmt.Errorf("smc: bob: %w", err)
	}
	if err := eng.init(pk); err != nil {
		return fmt.Errorf("smc: bob: %w", err)
	}
	defer eng.close()
	if err := spec.CheckRecords(records); err != nil {
		return fmt.Errorf("smc: bob: %w", err)
	}
	plan, err := spec.resultPlan(pk.N.BitLen())
	if err != nil {
		return fmt.Errorf("smc: bob: %w", err)
	}
	// held are the slots of the pairs still owed a ciphertext.
	held := make([]paillier.Slot, 0, plan.group*plan.d)
	active := spec.activeAttrs()
	sq, lin := make([]*paillier.MontCiphertext, len(active)), make([]*paillier.MontCiphertext, len(active))
	for {
		m, err := query.Recv()
		if err != nil {
			return fmt.Errorf("smc: bob: receiving request: %w", err)
		}
		switch m.Kind {
		case MsgShutdown:
			return nil
		case MsgCompare:
		default:
			return fmt.Errorf("smc: bob: unexpected message kind %d", m.Kind)
		}
		// The whole list is checked before Alice's shares are read: results
		// are matched to requests by order, so a run must be answered in
		// full or not at all.
		if len(m.Records) < 1 || len(m.Records) > maxRun {
			return fmt.Errorf("smc: bob: run of %d records, want 1 to %d", len(m.Records), maxRun)
		}
		for _, j := range m.Records {
			if j < 0 || j >= len(records) {
				return fmt.Errorf("smc: bob: record %d out of range", j)
			}
		}
		shares, err := alice.Recv()
		if err != nil {
			return fmt.Errorf("smc: bob: receiving shares: %w", err)
		}
		if shares.Kind != MsgShares || len(shares.Sq) != len(active) || len(shares.Lin) != len(active) {
			return fmt.Errorf("smc: bob: malformed shares message")
		}
		for k := range active {
			sq[k] = pk.ToMont(&paillier.Ciphertext{C: shares.Sq[k]})
			lin[k] = pk.ToMont(&paillier.Ciphertext{C: shares.Lin[k]})
		}
		for x, j := range m.Records {
			rec := records[j]
			out := &Message{Kind: MsgResult, Record: j, Left: len(m.Records) - 1 - x}
			pair := len(held)
			for k, ai := range active {
				slot, err := blindedSlot(pk, sq[k], lin[k], rec[ai], spec.Attrs[ai])
				if err != nil {
					return fmt.Errorf("smc: bob: %w", err)
				}
				held = append(held, slot)
			}
			// The shuffle stays inside the pair: which slots a pair takes is a
			// public function of its place in the run, so the querying party's
			// view of every pair stays a shuffled multiset of blinded values
			// (see PROTOCOL.md). The slots wait in held until the frame the
			// plan puts their ciphertext on.
			if err := shuffle(held[pair:]); err != nil {
				return fmt.Errorf("smc: bob: shuffling results: %w", err)
			}
			if pairs, _ := plan.frame(x, out.Left); pairs > 0 {
				if out.Res, err = packSlots(pk, eng.pool, held, plan.pack); err != nil {
					return fmt.Errorf("smc: bob: packing results: %w", err)
				}
				held = held[:0]
			}
			if err := query.Send(out); err != nil {
				return fmt.Errorf("smc: bob: sending result: %w", err)
			}
		}
	}
}

// blinds draws one value's multiplicative blind ρ ∈ [1, 2^blindBits) and
// its additive noise δ ∈ [0, ρ).
func blinds(pk *paillier.PublicKey) (rho, delta *big.Int, err error) {
	if rho, err = pk.RandomBlind(rand.Reader, blindBits); err != nil {
		return nil, nil, err
	}
	if delta, err = rand.Int(rand.Reader, rho); err != nil {
		return nil, nil, err
	}
	return rho, delta, nil
}

// blindedSlot is one attribute's packed value ρ·((a−b)² − T − 1) + δ
// (ModeEquality has T = 0: a match iff (a−b)² < 1): the slot's base is
// Enc(a² − 2ab) = Sq·Lin^b, in Montgomery form, and the public rest,
// ρ·(b² − T − 1) + δ, exact however large b and T, rides in the slot's
// constant.
func blindedSlot(pk *paillier.PublicKey, sq, lin *paillier.MontCiphertext, b int64, attr AttrSpec) (paillier.Slot, error) {
	base, err := pk.MulPow(sq, lin, b)
	if err != nil {
		return paillier.Slot{}, fmt.Errorf("malformed shares: %w", err)
	}
	rho, delta, err := blinds(pk)
	if err != nil {
		return paillier.Slot{}, err
	}
	add := big.NewInt(b)
	add.Mul(add, add)
	add.Sub(add, big.NewInt(attr.T))
	add.Sub(add, big.NewInt(1))
	add.Mul(add, rho)
	return paillier.Slot{Base: base, Rho: rho.Uint64(), Add: add.Add(add, delta)}, nil
}

// packSlots packs held slots into ciphertexts under the plan, each one
// chain, and rerandomizes each packed ciphertext, so the wire carries
// fresh uniform units rather than products of the inputs' randomness.
func packSlots(pk *paillier.PublicKey, pool *paillier.RandomizerPool, held []paillier.Slot, plan paillier.PackPlan) ([]*big.Int, error) {
	out := make([]*big.Int, 0, plan.Ciphertexts(len(held)))
	for lo := 0; lo < len(held); lo += plan.Slots {
		packed, err := pk.PackBlinded(held[lo:min(lo+plan.Slots, len(held))], plan)
		if err != nil {
			return nil, err
		}
		r, err := pool.Rerandomize(packed)
		if err != nil {
			return nil, err
		}
		out = append(out, r.C)
	}
	return out, nil
}

// shuffle applies a cryptographically random Fisher-Yates permutation in
// place.
func shuffle[T any](cs []T) error {
	for i := len(cs) - 1; i > 0; i-- {
		j, err := rand.Int(rand.Reader, big.NewInt(int64(i+1)))
		if err != nil {
			return err
		}
		k := int(j.Int64())
		cs[i], cs[k] = cs[k], cs[i]
	}
	return nil
}

// QuerySession is the querying party's end of the protocol. It owns the
// Paillier private key; Compare drives one circuit evaluation. Sessions
// are not safe for concurrent Compare calls; ShardedComparator runs
// several sessions side by side instead.
type QuerySession struct {
	alice, bob  Conn
	sk          *paillier.PrivateKey
	window      int
	invocations int64
	decryptions int64
	plan        resultPlan
	closed      bool
}

// NewQuerySession generates a fresh key pair of the given size (the
// paper's experiments use 1024 bits) and distributes the public key to
// both data holders.
func NewQuerySession(alice, bob Conn, spec *Spec, keyBits int) (*QuerySession, error) {
	sk, err := paillier.GenerateKey(rand.Reader, keyBits)
	if err != nil {
		return nil, fmt.Errorf("smc: generating key: %w", err)
	}
	return newQuerySessionWithKey(alice, bob, spec, sk)
}

func newQuerySessionWithKey(alice, bob Conn, spec *Spec, sk *paillier.PrivateKey) (*QuerySession, error) {
	// The plan is derived before the key is distributed, so a foreign
	// result encoding or an infeasible slot width fails here, not
	// asynchronously inside Bob's loop.
	plan, err := spec.resultPlan(sk.N.BitLen())
	if err != nil {
		return nil, fmt.Errorf("smc: %w", err)
	}
	q := &QuerySession{
		alice:  alice,
		bob:    bob,
		sk:     sk,
		window: pipelineWindowFor(alice, bob),
		plan:   plan,
	}
	pkMsg := &Message{Kind: MsgPublicKey, N: sk.N}
	if err := alice.Send(pkMsg); err != nil {
		return nil, fmt.Errorf("smc: sending key to alice: %w", err)
	}
	if err := bob.Send(pkMsg); err != nil {
		return nil, fmt.Errorf("smc: sending key to bob: %w", err)
	}
	return q, nil
}

// Compare runs one secure comparison — a run of length one: does Alice's
// record i match Bob's record j under the spec?
func (q *QuerySession) Compare(i, j int) (bool, error) {
	out, err := q.CompareBatch([][2]int{{i, j}})
	if err != nil {
		return false, err
	}
	return out[0], nil
}

// receiveResult collects the result frame of the run's pair at position x
// — Bob's record j, with left more owed by the run — and, when the plan
// puts ciphertexts on that frame, decrypts them and folds the values into
// the verdicts of the pairs they hold: verdicts[len(verdicts)-pairs:], this
// pair's last. A frame that is not the one awaited, or carries another
// number of ciphertexts than the plan gives its position — one too early,
// none on a run's last frame — is an error: no verdict is ever taken from
// a ciphertext whose pairs are in doubt.
func (q *QuerySession) receiveResult(j, x, left int, verdicts []bool) error {
	res, err := q.bob.Recv()
	if err != nil {
		return fmt.Errorf("smc: receiving result: %w", err)
	}
	if res.Kind != MsgResult {
		return fmt.Errorf("smc: malformed result message")
	}
	if res.Record != j || res.Left != left {
		return fmt.Errorf("smc: result for bob's record %d with %d to follow, while waiting for record %d with %d to follow",
			res.Record, res.Left, j, left)
	}
	pairs, cts := q.plan.frame(x, left)
	if len(res.Res) != cts {
		return fmt.Errorf("smc: malformed result message: %d ciphertexts on the frame of a run's pair %d with %d to follow, want %d",
			len(res.Res), x, left, cts)
	}
	if pairs == 0 {
		return nil
	}
	vals := make([]*big.Int, pairs*q.plan.d)
	per := q.plan.pack.Slots // values per ciphertext
	if err := forEachAttr(cts, func(c int) error {
		vs, err := q.sk.UnpackSigned(&paillier.Ciphertext{C: res.Res[c]}, q.plan.pack, min(per, len(vals)-c*per))
		if err != nil {
			return fmt.Errorf("smc: unpacking result ciphertext %d: %w", c, err)
		}
		copy(vals[c*per:], vs)
		return nil
	}); err != nil {
		return err
	}
	q.invocations += int64(pairs)
	q.decryptions += int64(cts)
	verdicts = verdicts[len(verdicts)-pairs:]
	for p := range verdicts {
		verdicts[p] = verdict(vals[p*q.plan.d : (p+1)*q.plan.d])
	}
	return nil
}

// verdict folds one pair's decrypted per-attribute values into the match
// bit: every blinded value is negative exactly when its attribute is
// within threshold.
func verdict(vals []*big.Int) bool {
	for _, v := range vals {
		if v.Sign() >= 0 {
			return false
		}
	}
	return true
}

// maxRun is the protocol's cap on the records of one run: Bob refuses a
// longer list, so it is part of the frame contract, not a tuning knob.
const maxRun = 16

// defaultPipelineWindow bounds how many result frames may be in flight
// during CompareBatch when the transport does not advertise a frame
// buffer. It is twice the run cap, so two runs of maxRun pairs are in
// flight at once: the holders work on one while this party decrypts the
// other.
const defaultPipelineWindow = 2 * maxRun

// pipelineWindowFor derives the pipelining depth from the connections'
// frame buffers: with at most min(buffer) result frames in flight — and
// so no more requests or share sets, one of each per run — no link can
// ever accumulate more unread frames than its buffer holds, so request
// fan-out cannot deadlock against unread results. Transports without a
// declared buffer (e.g. TCP, which buffers in the kernel) use the
// default.
func pipelineWindowFor(conns ...Conn) int {
	w := defaultPipelineWindow
	for _, c := range conns {
		if fb, ok := c.(FrameBuffered); ok {
			if b := fb.FrameBuffer(); b > 0 && b < w {
				w = b
			}
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runLen is the length of the run that opens pairs: the consecutive pairs
// sharing its first pair's Alice record, cut at min(window/2, maxRun). A
// run is sent only when the window has room for all of it; at half the
// window the next run always fits once the previous one has drained, so
// the holders stay busy while this party decrypts. Sizing runs to whatever
// room the last received result left would shrink them to one pair.
func (q *QuerySession) runLen(pairs [][2]int) int {
	limit := min(q.window/2, maxRun)
	n := 1
	for n < len(pairs) && n < limit && pairs[n][0] == pairs[0][0] {
		n++
	}
	return n
}

// CompareBatch resolves many pairs run by run, with pipelining: Alice is
// asked for one share set per run and Bob answers every pair of it with
// its own result frame — a pair's verdict is known once the frame carrying
// its ciphertext is in — up to the session's window of result frames in
// flight, so Alice's encryptions, Bob's homomorphic evaluation and this
// party's decryptions overlap instead of serializing. Results are
// positionally aligned with pairs. A data holder sees the same requests
// whether the pairs arrive in one call or many.
func (q *QuerySession) CompareBatch(pairs [][2]int) ([]bool, error) {
	if q.closed {
		return nil, fmt.Errorf("smc: session closed")
	}
	results := make([]bool, len(pairs))
	sent, received := 0, 0
	x, left := 0, 0 // the place in its run of the result awaited, and what the run owes after it
	for received < len(pairs) {
		for sent < len(pairs) {
			n := q.runLen(pairs[sent:])
			if sent-received+n > q.window {
				break
			}
			js := make([]int, n)
			for x := range js {
				js[x] = pairs[sent+x][1]
			}
			if err := q.alice.Send(&Message{Kind: MsgCompare, Record: pairs[sent][0]}); err != nil {
				return nil, fmt.Errorf("smc: requesting alice: %w", err)
			}
			if err := q.bob.Send(&Message{Kind: MsgCompare, Records: js}); err != nil {
				return nil, fmt.Errorf("smc: requesting bob: %w", err)
			}
			sent += n
		}
		if left == 0 {
			x, left = 0, q.runLen(pairs[received:]) // the same cut the send side made
		}
		left--
		if err := q.receiveResult(pairs[received][1], x, left, results[:received+1]); err != nil {
			return nil, err
		}
		x++
		received++
	}
	return results, nil
}

// Invocations returns the number of completed secure comparisons, the
// paper's cost unit.
func (q *QuerySession) Invocations() int64 { return q.invocations }

// Decryptions returns how many Paillier decryptions the session has
// performed — the querying party's dominant cost: one per result
// ciphertext, so ⌈d/slots⌉ per comparison or one per ⌊slots/d⌋
// comparisons of a run.
func (q *QuerySession) Decryptions() int64 { return q.decryptions }

// Close sends shutdown to both data holders.
func (q *QuerySession) Close() error {
	if q.closed {
		return nil
	}
	q.closed = true
	errA := q.alice.Send(&Message{Kind: MsgShutdown})
	errB := q.bob.Send(&Message{Kind: MsgShutdown})
	if errA != nil {
		return errA
	}
	return errB
}

// receiveKey waits for the querying party's public key.
func receiveKey(query Conn) (*paillier.PublicKey, error) {
	m, err := query.Recv()
	if err != nil {
		return nil, fmt.Errorf("receiving public key: %w", err)
	}
	if m.Kind != MsgPublicKey || m.N == nil {
		return nil, fmt.Errorf("expected public key, got kind %d", m.Kind)
	}
	return paillier.NewPublicKey(m.N)
}
