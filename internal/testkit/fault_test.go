package testkit

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pprl/internal/smc"
)

// The fault fixtures use a tiny two-attribute circuit whose expected
// verdicts are hand-checkable: equality on the first attribute, squared
// threshold 16 on the second.
func faultSpec() *smc.Spec {
	return &smc.Spec{Attrs: []smc.AttrSpec{
		{Mode: smc.ModeEquality},
		{Mode: smc.ModeThreshold, T: 16},
	}, Scale: 1}
}

// The pair list is four runs — 3, 2, 1 and 2 pairs — so on every link the
// frame positions are known: requests 1–4 on the query links (0 is the
// key), share sets 0–3 on the peer link, results 0–2 | 3–4 | 5 | 6–7.
var (
	faultAlice = [][]int64{{3, 10}, {5, 40}, {7, 0}}
	faultBob   = [][]int64{{3, 12}, {5, 43}, {7, 100}}
	faultPairs = [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2}, {0, 1}, {0, 0}}
	faultWant  = []bool{true, false, false, true, false, false, false, true}
	// faultLongRun is one run of 16 pairs — the protocol's run cap — on
	// Alice's first record: its results 8–15 (pairs 9–16) lie past the cut
	// at 8 that a 16-frame window makes.
	faultLongRun = func() [][2]int {
		pairs := make([][2]int, 16)
		for k := range pairs {
			pairs[k] = [2]int{0, k % len(faultBob)}
		}
		return pairs
	}()
)

// faultLinks exposes every protocol connection end so a scenario can
// wrap any of them with FaultConn before the parties start.
type faultLinks struct {
	qa, aq smc.Conn // query <-> alice
	qb, bq smc.Conn // query <-> bob
	ab, ba smc.Conn // alice <-> bob
}

// runFaulty wires the three-party protocol over in-memory connections,
// lets the scenario wrap links with faults, and runs pairs as a pipelined
// batch with the same teardown-on-party-error behavior the production
// comparator uses. It returns the query side's verdicts and error plus
// the first party-loop error. Hang guards fail the test rather than
// letting a deadlocked protocol stall the suite.
func runFaulty(t *testing.T, pairs [][2]int, mutate func(*faultLinks)) (verdicts []bool, queryErr, partyErr error) {
	t.Helper()
	qa, aq := smc.NewConnPair()
	qb, bq := smc.NewConnPair()
	ab, ba := smc.NewConnPair()
	l := &faultLinks{qa: qa, aq: aq, qb: qb, bq: bq, ab: ab, ba: ba}
	mutate(l)
	conns := []smc.Conn{l.qa, l.aq, l.qb, l.bq, l.ab, l.ba}

	var errMu sync.Mutex
	var firstPartyErr error
	record := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if firstPartyErr == nil {
			firstPartyErr = err
		}
		errMu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		record(smc.RunAlice(l.aq, l.ab, faultAlice, faultSpec()))
	}()
	go func() {
		defer wg.Done()
		record(smc.RunBob(l.bq, l.ba, faultBob, faultSpec()))
	}()

	type outcome struct {
		verdicts []bool
		err      error
	}
	resCh := make(chan outcome, 1)
	go func() {
		session, err := smc.NewQuerySession(l.qa, l.qb, faultSpec(), 256)
		if err != nil {
			resCh <- outcome{nil, err}
			return
		}
		v, err := session.CompareBatch(pairs)
		session.Close()
		resCh <- outcome{v, err}
	}()
	var out outcome
	select {
	case out = <-resCh:
	case <-time.After(60 * time.Second):
		for _, c := range conns {
			c.Close()
		}
		t.Fatal("query side hung under fault injection")
	}
	for _, c := range conns {
		c.Close()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("party loops hung after faulted run")
	}
	errMu.Lock()
	pe := firstPartyErr
	errMu.Unlock()
	return out.verdicts, out.err, pe
}

// assertFailedCleanly requires the faulted run to produce an error and
// no verdicts: a transport fault must never surface as a (possibly
// wrong) match labeling.
func assertFailedCleanly(t *testing.T, verdicts []bool, queryErr error) {
	t.Helper()
	if queryErr == nil {
		t.Fatal("faulted run returned no error")
	}
	if verdicts != nil {
		t.Fatalf("faulted run returned verdicts %v alongside error %v", verdicts, queryErr)
	}
}

func TestFaultFreeBaseline(t *testing.T) {
	verdicts, queryErr, partyErr := runFaulty(t, faultPairs, func(*faultLinks) {})
	if queryErr != nil || partyErr != nil {
		t.Fatalf("clean run failed: query=%v party=%v", queryErr, partyErr)
	}
	for k, want := range faultWant {
		if verdicts[k] != want {
			t.Errorf("pair %v: verdict %v, want %v", faultPairs[k], verdicts[k], want)
		}
	}
}

func TestFaultTruncatedShares(t *testing.T) {
	verdicts, queryErr, partyErr := runFaulty(t, faultPairs, func(l *faultLinks) {
		l.ab = WrapFaulty(l.ab, Fault{Pos: 0, Kind: FaultTruncate})
	})
	assertFailedCleanly(t, verdicts, queryErr)
	if partyErr == nil || !strings.Contains(partyErr.Error(), "malformed shares") {
		t.Errorf("bob should reject truncated shares, got party error: %v", partyErr)
	}
}

func TestFaultGarbledShares(t *testing.T) {
	// Garbling the second run's shares lets the first run finish, proving
	// a mid-batch fault still fails the whole batch instead of returning
	// partial verdicts.
	verdicts, queryErr, _ := runFaulty(t, faultPairs, func(l *faultLinks) {
		l.ab = WrapFaulty(l.ab, Fault{Pos: 1, Kind: FaultGarble})
	})
	assertFailedCleanly(t, verdicts, queryErr)
	if !strings.Contains(queryErr.Error(), "decrypt") && !strings.Contains(queryErr.Error(), "invalid ciphertext") {
		t.Errorf("zero ciphertexts should fail decryption, got: %v", queryErr)
	}
}

func TestFaultGarbledResult(t *testing.T) {
	verdicts, queryErr, _ := runFaulty(t, faultPairs, func(l *faultLinks) {
		l.bq = WrapFaulty(l.bq, Fault{Pos: 0, Kind: FaultGarble})
	})
	assertFailedCleanly(t, verdicts, queryErr)
	if !strings.Contains(queryErr.Error(), "decrypt") && !strings.Contains(queryErr.Error(), "invalid ciphertext") {
		t.Errorf("garbled result should fail decryption, got: %v", queryErr)
	}
}

func TestFaultTruncatedResult(t *testing.T) {
	verdicts, queryErr, _ := runFaulty(t, faultPairs, func(l *faultLinks) {
		l.bq = WrapFaulty(l.bq, Fault{Pos: 0, Kind: FaultTruncate})
	})
	assertFailedCleanly(t, verdicts, queryErr)
	if !strings.Contains(queryErr.Error(), "malformed result") {
		t.Errorf("truncated result should be rejected as malformed, got: %v", queryErr)
	}
}

func TestFaultDroppedSharesLink(t *testing.T) {
	verdicts, queryErr, partyErr := runFaulty(t, faultPairs, func(l *faultLinks) {
		l.ab = WrapFaulty(l.ab, Fault{Pos: 0, Kind: FaultDrop})
	})
	assertFailedCleanly(t, verdicts, queryErr)
	if partyErr == nil {
		t.Error("a dead alice-bob link should surface as a party error")
	}
}

func TestFaultDroppedKey(t *testing.T) {
	// The key frame is lost and the query-alice link dies with it; the
	// session must fail on the first comparison rather than hang.
	verdicts, queryErr, _ := runFaulty(t, faultPairs, func(l *faultLinks) {
		l.qa = WrapFaulty(l.qa, Fault{Pos: 0, Kind: FaultDrop})
	})
	assertFailedCleanly(t, verdicts, queryErr)
}

func TestFaultDelayPreservesCorrectness(t *testing.T) {
	// Delays on the shares and result paths slow the protocol down but
	// must not change a single verdict.
	verdicts, queryErr, partyErr := runFaulty(t, faultPairs, func(l *faultLinks) {
		l.ab = WrapFaulty(l.ab, Fault{Pos: 0, Kind: FaultDelay}, Fault{Pos: 2, Kind: FaultDelay})
		l.bq = WrapFaulty(l.bq, Fault{Pos: 1, Kind: FaultDelay})
	})
	if queryErr != nil || partyErr != nil {
		t.Fatalf("delayed run failed: query=%v party=%v", queryErr, partyErr)
	}
	for k, want := range faultWant {
		if verdicts[k] != want {
			t.Errorf("pair %v: verdict %v, want %v", faultPairs[k], verdicts[k], want)
		}
	}
}

// TestFaultMatrixAcrossRuns walks the fault kinds over the frames a run
// adds: a result inside a run, the last of one run and the first of the
// next, the requests that open a run on either query link, the final
// (two-pair) run's request — and every result of a full-length run past
// its eighth pair. A lost, cut or garbled frame must be an error on the
// query side with no verdicts — results are matched to requests by order
// alone, so anything less risks a verdict on the wrong pair — and must
// never hang; a delayed frame must change nothing.
func TestFaultMatrixAcrossRuns(t *testing.T) {
	bqWrap := func(l *faultLinks, f ...Fault) { l.bq = WrapFaulty(l.bq, f...) }
	links := []struct {
		name  string
		pairs [][2]int
		wrap  func(*faultLinks, ...Fault)
		pos   []int
		// truncatable is false for Alice's requests: they carry one
		// handle and no vector, so there is nothing to cut.
		truncatable bool
	}{
		{"result", faultPairs, bqWrap, []int{1, 2, 3, 7}, true},
		{"shares", faultPairs, func(l *faultLinks, f ...Fault) { l.ab = WrapFaulty(l.ab, f...) }, []int{1, 3}, true},
		{"bob request", faultPairs, func(l *faultLinks, f ...Fault) { l.qb = WrapFaulty(l.qb, f...) }, []int{1, 2, 3, 4}, true},
		{"alice request", faultPairs, func(l *faultLinks, f ...Fault) { l.qa = WrapFaulty(l.qa, f...) }, []int{1, 2, 4}, false},
		{"long-run result", faultLongRun, bqWrap, []int{8, 9, 10, 11, 12, 13, 14, 15}, true},
	}
	for _, link := range links {
		for _, pos := range link.pos {
			for _, kind := range []FaultKind{FaultDrop, FaultTruncate, FaultGarble, FaultDelay} {
				if kind == FaultTruncate && !link.truncatable {
					continue
				}
				t.Run(fmt.Sprintf("%s %d %s", link.name, pos, kind), func(t *testing.T) {
					verdicts, queryErr, partyErr := runFaulty(t, link.pairs, func(l *faultLinks) {
						link.wrap(l, Fault{Pos: pos, Kind: kind})
					})
					if kind != FaultDelay {
						assertFailedCleanly(t, verdicts, queryErr)
						return
					}
					if queryErr != nil || partyErr != nil {
						t.Fatalf("delayed run failed: query=%v party=%v", queryErr, partyErr)
					}
					for k, p := range link.pairs {
						if want := faultSpec().Matches(faultAlice[p[0]], faultBob[p[1]]); verdicts[k] != want {
							t.Errorf("pair %v: verdict %v, want %v", p, verdicts[k], want)
						}
					}
				})
			}
		}
	}
}

// TestFaultShortRunList: a run list that loses an entry on the way to Bob
// yields one result too few. The querying party must notice on the run's
// first frame — also when the run is the batch's last and no later frame
// would ever show the gap — and a list cut to nothing must stop Bob before
// he reads Alice's shares.
func TestFaultShortRunList(t *testing.T) {
	for _, pos := range []int{1, 4} { // the 3-pair first run, the 2-pair last
		verdicts, queryErr, _ := runFaulty(t, faultPairs, func(l *faultLinks) {
			l.qb = WrapFaulty(l.qb, Fault{Pos: pos, Kind: FaultTruncate})
		})
		assertFailedCleanly(t, verdicts, queryErr)
		if !strings.Contains(queryErr.Error(), "while waiting for") {
			t.Errorf("request %d: a short run should be rejected by its echo, got: %v", pos, queryErr)
		}
	}
	verdicts, queryErr, partyErr := runFaulty(t, faultPairs, func(l *faultLinks) {
		l.qb = WrapFaulty(l.qb, Fault{Pos: 3, Kind: FaultTruncate}) // the 1-pair run
	})
	assertFailedCleanly(t, verdicts, queryErr)
	if partyErr == nil || !strings.Contains(partyErr.Error(), "run of 0 records") {
		t.Errorf("bob should reject an empty run, got party error: %v", partyErr)
	}
}
