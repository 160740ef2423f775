package smc

import (
	"crypto/rand"
	"math/big"
	"strings"
	"testing"
	"time"

	"pprl/internal/paillier"
)

// failure-injection tests: every party loop must reject malformed or
// out-of-protocol messages with a descriptive error instead of hanging or
// panicking.

func startAlice(t *testing.T, records [][]int64, spec *Spec) (query, bob Conn, errs chan error) {
	t.Helper()
	qa, aq := NewConnPair()
	ab, ba := NewConnPair()
	errs = make(chan error, 1)
	go func() { errs <- RunAlice(aq, ab, records, spec) }()
	return qa, ba, errs
}

func startBob(t *testing.T, records [][]int64, spec *Spec) (query, alice Conn, errs chan error) {
	t.Helper()
	qb, bq := NewConnPair()
	ab, ba := NewConnPair()
	errs = make(chan error, 1)
	go func() { errs <- RunBob(bq, ba, records, spec) }()
	return qb, ab, errs
}

func sendKey(t *testing.T, c Conn) *paillier.PrivateKey {
	t.Helper()
	sk, err := paillier.GenerateKey(rand.Reader, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(&Message{Kind: MsgPublicKey, N: sk.N}); err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestAliceRejectsGarbageBeforeKey(t *testing.T) {
	spec := testSpec()
	qa, _, errs := startAlice(t, [][]int64{{1, 2, 3}}, spec)
	if err := qa.Send(&Message{Kind: MsgCompare, Record: 0}); err != nil {
		t.Fatal(err)
	}
	err := <-errs
	if err == nil || !strings.Contains(err.Error(), "public key") {
		t.Errorf("alice error = %v, want public-key complaint", err)
	}
}

func TestAliceRejectsOutOfRangeRecord(t *testing.T) {
	spec := testSpec()
	qa, _, errs := startAlice(t, [][]int64{{1, 2, 3}}, spec)
	sendKey(t, qa)
	if err := qa.Send(&Message{Kind: MsgCompare, Record: 7}); err != nil {
		t.Fatal(err)
	}
	err := <-errs
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("alice error = %v, want out-of-range complaint", err)
	}
}

func TestAliceRejectsUnexpectedKind(t *testing.T) {
	spec := testSpec()
	qa, _, errs := startAlice(t, [][]int64{{1, 2, 3}}, spec)
	sendKey(t, qa)
	if err := qa.Send(&Message{Kind: MsgResult}); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err == nil {
		t.Error("alice should reject a MsgResult from the querying party")
	}
}

func TestBobRejectsMalformedShares(t *testing.T) {
	spec := testSpec()
	qb, alice, errs := startBob(t, [][]int64{{1, 2, 3}}, spec)
	sendKey(t, qb)
	if err := qb.Send(&Message{Kind: MsgCompare, Records: []int{0}}); err != nil {
		t.Fatal(err)
	}
	// Wrong arity: the spec has two active attributes.
	if err := alice.Send(&Message{Kind: MsgShares, Sq: []*big.Int{big.NewInt(1)}, Lin: []*big.Int{big.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	err := <-errs
	if err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("bob error = %v, want malformed-shares complaint", err)
	}
}

// TestBobRejectsBadRun: Bob checks the whole list of a run before he reads
// Alice's shares or answers any of it — a run answered in part would shift
// every later verdict. The alice link is never written to, so a Bob that
// validated lazily would hang here instead of failing.
func TestBobRejectsBadRun(t *testing.T) {
	for name, records := range map[string][]int{
		"empty":             nil,
		"negative":          {-1},
		"out of range":      {1},
		"bad tail":          {0, 0, 1},
		"longer than a run": make([]int, maxRun+1),
	} {
		t.Run(name, func(t *testing.T) {
			spec := testSpec()
			qb, _, errs := startBob(t, [][]int64{{1, 2, 3}}, spec)
			sendKey(t, qb)
			if err := qb.Send(&Message{Kind: MsgCompare, Records: records}); err != nil {
				t.Fatal(err)
			}
			err := <-errs
			if err == nil || !(strings.Contains(err.Error(), "out of range") || strings.Contains(err.Error(), "run of")) {
				t.Errorf("bob error = %v, want a complaint about the run", err)
			}
			qb.Close() // a closed link still hands over a frame already sent
			if m, rerr := qb.Recv(); rerr == nil {
				t.Errorf("bob answered part of a bad run: %+v", m)
			}
		})
	}
}

func TestPartyStopsOnClosedConn(t *testing.T) {
	spec := testSpec()
	qa, _, errs := startAlice(t, [][]int64{{1, 2, 3}}, spec)
	qa.Close()
	if err := <-errs; err == nil {
		t.Error("alice should surface a transport error when the query link closes")
	}
}

func TestQueryRejectsBadResult(t *testing.T) {
	// A malicious Bob answering with garbage ciphertexts must not crash
	// the querying party.
	spec := testSpec()
	qa, aq := NewConnPair()
	qb, bq := NewConnPair()
	go func() {
		// Fake Alice: consume the key and request, do nothing else.
		aq.Recv()
		aq.Recv()
	}()
	go func() {
		bq.Recv() // key
		bq.Recv() // compare
		// Garbage: right arity (one packed ciphertext), invalid ciphertext 0.
		bq.Send(&Message{Kind: MsgResult, Res: []*big.Int{big.NewInt(0)}})
	}()
	q, err := NewQuerySession(qa, qb, spec, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Compare(0, 0); err == nil {
		t.Error("querying party should reject invalid ciphertexts")
	}
}

// TestQueryRejectsWrongArityResult: a result frame with no ciphertext
// where the plan owes one is malformed.
func TestQueryRejectsWrongArityResult(t *testing.T) {
	spec := testSpec()
	qa, aq := NewConnPair()
	qb, bq := NewConnPair()
	go func() {
		aq.Recv()
		aq.Recv()
	}()
	go func() {
		bq.Recv()
		bq.Recv()
		bq.Send(&Message{Kind: MsgResult})
	}()
	q, err := NewQuerySession(qa, qb, spec, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Compare(0, 0); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("error = %v, want malformed-result complaint", err)
	}
}

func TestReceiveKeyRejectsBadModulus(t *testing.T) {
	for _, n := range []int64{-5, 0, 1, 4, 1 << 40} {
		a, b := NewConnPair()
		go a.Send(&Message{Kind: MsgPublicKey, N: big.NewInt(n)})
		if _, err := receiveKey(b); err == nil {
			t.Errorf("modulus %d should be rejected", n)
		}
	}
}

// TestForeignEncodingRefused: a spec reaches the holders in MsgParams and
// the fleet's workers in their job setup, and Packing 1 is what a querying
// party built when 0 meant one ciphertext per attribute sends for packed.
// The in-process engine, a query session and Bob each refuse it by name
// before any ciphertext is built; none of them hangs.
func TestForeignEncodingRefused(t *testing.T) {
	spec := testSpec()
	spec.Packing = 1
	records := [][]int64{{1, 10, 0}}
	const want = "result encoding 1"
	within := func(what string, f func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error = %v, want one naming the %s", what, err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no answer to a foreign result encoding after 10s", what)
		}
	}

	within("NewLocalSecure", func() error {
		_, err := NewLocalSecure(spec, records, records, testKeyBits)
		return err
	})

	qa, _ := NewConnPair()
	qb, _ := NewConnPair()
	within("NewQuerySession", func() error {
		_, err := NewQuerySession(qa, qb, spec, testKeyBits)
		return err
	})
	if qa.Bytes() != 0 || qb.Bytes() != 0 {
		t.Errorf("the query session sent %d and %d bytes before refusing", qa.Bytes(), qb.Bytes())
	}

	// Bob is handed the key and nothing else: no request, no shares.
	query, _, errs := startBob(t, records, spec)
	sendKey(t, query)
	within("RunBob", func() error { return <-errs })
}
