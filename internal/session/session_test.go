package session

import (
	crand "crypto/rand"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/match"
	"pprl/internal/paillier"
	"pprl/internal/smc"
)

// testKeyBits keeps session tests fast.
const testKeyBits = 256

func sessionWorkload(t testing.TB, n int) (alice, bob *dataset.Dataset) {
	t.Helper()
	full := adult.Generate(n, 77)
	return dataset.SplitOverlap(full, rand.New(rand.NewSource(78)))
}

// runLocalSession wires the three roles over in-memory conns and returns
// the querying party's result.
func runLocalSession(t *testing.T, aliceData, bobData *dataset.Dataset, cfg QueryConfig, aliceK, bobK int) (*QueryResult, error) {
	t.Helper()
	qa, aq := smc.NewConnPair()
	qb, bq := smc.NewConnPair()
	ab, ba := smc.NewConnPair()
	errs := make(chan error, 2)
	go func() {
		errs <- RunHolder(aq, ab, HolderConfig{Data: aliceData, K: aliceK}, true)
	}()
	go func() {
		errs <- RunHolder(bq, ba, HolderConfig{Data: bobData, K: bobK}, false)
	}()
	res, err := RunQuery(qa, qb, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		if herr := <-errs; herr != nil {
			t.Fatalf("holder error: %v", herr)
		}
	}
	return res, nil
}

func TestSessionEndToEnd(t *testing.T) {
	aliceData, bobData := sessionWorkload(t, 120)
	cfg := QueryConfig{
		Schema:            aliceData.Schema(),
		QIDs:              adult.DefaultQIDs(),
		Theta:             0.05,
		AllowanceFraction: 1.0, // resolve everything: session result must be exact
		KeyBits:           testKeyBits,
	}
	res, err := runLocalSession(t, aliceData, bobData, cfg, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.AliceView.K != 4 || res.BobView.K != 8 {
		t.Errorf("views carry k=%d,%d, want 4,8", res.AliceView.K, res.BobView.K)
	}
	// With full allowance the session's matches equal ground truth.
	qids, err := aliceData.Schema().Resolve(cfg.QIDs)
	if err != nil {
		t.Fatal(err)
	}
	rule, err := blocking.RuleFor(aliceData.Schema(), qids, cfg.Theta)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := match.TruePairs(aliceData, bobData, qids, rule)
	if err != nil {
		t.Fatal(err)
	}
	key := func(p match.Pair) int64 { return p.Key(bobData.Len()) }
	got := make([]int64, len(res.Matches))
	for i, p := range res.Matches {
		got[i] = key(p)
	}
	want := make([]int64, len(truth))
	for i, p := range truth {
		want[i] = key(p)
	}
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	if len(got) != len(want) {
		t.Fatalf("session found %d matches, truth has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match set differs at %d", i)
		}
	}
	if res.Invocations <= 0 || res.Invocations > res.Allowance {
		t.Errorf("invocations = %d, allowance = %d", res.Invocations, res.Allowance)
	}
}

func TestSessionBudgeted(t *testing.T) {
	aliceData, bobData := sessionWorkload(t, 90)
	cfg := QueryConfig{
		Schema:    aliceData.Schema(),
		QIDs:      adult.DefaultQIDs(),
		Theta:     0.05,
		Allowance: 25,
		KeyBits:   testKeyBits,
	}
	res, err := runLocalSession(t, aliceData, bobData, cfg, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invocations > 25 {
		t.Errorf("budget exceeded: %d invocations", res.Invocations)
	}
	// Every reported match is correct (precision guarantee end to end).
	qids, _ := aliceData.Schema().Resolve(cfg.QIDs)
	rule, _ := blocking.RuleFor(aliceData.Schema(), qids, cfg.Theta)
	for _, p := range res.Matches {
		if !rule.DecideExact(
			blocking.RecordSequence(aliceData, qids, p.I),
			blocking.RecordSequence(bobData, qids, p.J),
		) {
			t.Fatalf("session reported a false match (%d,%d)", p.I, p.J)
		}
	}
}

func TestSessionOverTCP(t *testing.T) {
	aliceData, bobData := sessionWorkload(t, 60)

	// Query party listens; holders dial and identify themselves.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Alice listens for Bob's peer link.
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	holderErrs := make(chan error, 2)
	go func() { // Alice
		qc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			holderErrs <- err
			return
		}
		query := smc.NewNetConn(qc)
		if err := Hello(query, RoleAlice); err != nil {
			holderErrs <- err
			return
		}
		pc, err := pl.Accept()
		if err != nil {
			holderErrs <- err
			return
		}
		holderErrs <- RunHolder(query, smc.NewNetConn(pc), HolderConfig{Data: aliceData, K: 4}, true)
	}()
	go func() { // Bob
		qc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			holderErrs <- err
			return
		}
		query := smc.NewNetConn(qc)
		if err := Hello(query, RoleBob); err != nil {
			holderErrs <- err
			return
		}
		pc, err := net.Dial("tcp", pl.Addr().String())
		if err != nil {
			holderErrs <- err
			return
		}
		holderErrs <- RunHolder(query, smc.NewNetConn(pc), HolderConfig{Data: bobData, K: 4}, false)
	}()

	// Query party: accept both, identify, run.
	var alice, bob smc.Conn
	for i := 0; i < 2; i++ {
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conn := smc.NewNetConn(c)
		role, err := Identify(conn)
		if err != nil {
			t.Fatal(err)
		}
		if role == RoleAlice {
			alice = conn
		} else {
			bob = conn
		}
	}
	res, err := RunQuery(alice, bob, QueryConfig{
		Schema:    aliceData.Schema(),
		QIDs:      adult.DefaultQIDs(),
		Theta:     0.05,
		Allowance: 10,
		KeyBits:   testKeyBits,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-holderErrs; err != nil {
			t.Fatalf("holder: %v", err)
		}
	}
	if res.TotalPairs != int64(aliceData.Len())*int64(bobData.Len()) {
		t.Errorf("TotalPairs = %d", res.TotalPairs)
	}
}

func TestSessionValidation(t *testing.T) {
	aliceData, _ := sessionWorkload(t, 30)
	qa, _ := smc.NewConnPair()
	qb, _ := smc.NewConnPair()
	if _, err := RunQuery(qa, qb, QueryConfig{}); err == nil {
		t.Error("missing schema/QIDs should fail")
	}
	if _, err := RunQuery(qa, qb, QueryConfig{Schema: aliceData.Schema(), QIDs: []string{"nope"}, Theta: 0.05}); err == nil {
		t.Error("unknown QID should fail")
	}
	foreign := QueryConfig{Schema: aliceData.Schema(), QIDs: adult.DefaultQIDs(), Theta: 0.05, Packing: 1}
	if _, err := RunQuery(qa, qb, foreign); err == nil || !strings.Contains(err.Error(), "result encoding 1") {
		t.Errorf("a result encoding other than packed: %v, want it refused by name", err)
	}
	if qa.Bytes() != 0 || qb.Bytes() != 0 {
		t.Errorf("refused configurations sent %d and %d bytes", qa.Bytes(), qb.Bytes())
	}
	conn, _ := smc.NewConnPair()
	if err := Hello(conn, "mallory"); err == nil {
		t.Error("invalid role should fail")
	}
	if err := RunHolder(conn, conn, HolderConfig{K: 1}, true); err == nil {
		t.Error("holder without data should fail")
	}
	if err := RunHolder(conn, conn, HolderConfig{Data: aliceData, K: 0}, true); err == nil {
		t.Error("holder k=0 should fail")
	}
}

func TestIdentifyRejectsGarbage(t *testing.T) {
	a, b := smc.NewConnPair()
	go a.Send(&smc.Message{Kind: smc.MsgCompare})
	if _, err := Identify(b); err == nil {
		t.Error("non-hello message should fail identification")
	}
	a2, b2 := smc.NewConnPair()
	go a2.Send(&smc.Message{Kind: smc.MsgHello, Role: "mallory"})
	if _, err := Identify(b2); err == nil {
		t.Error("unknown role should fail identification")
	}
}

// TestSessionMatchesDeterministic: blocking labels live in a map, so the
// blocked-Match pairs must be emitted in sorted class-pair order — two
// runs over the same views return the same Matches slice, not merely the
// same set.
func TestSessionMatchesDeterministic(t *testing.T) {
	aliceData, bobData := sessionWorkload(t, 240)
	cfg := QueryConfig{
		Schema:    aliceData.Schema(),
		QIDs:      adult.DefaultQIDs(),
		Theta:     0.05,
		Allowance: 5,
		KeyBits:   testKeyBits,
	}
	first, err := runLocalSession(t, aliceData, bobData, cfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Matches) < 8 {
		t.Fatalf("only %d matches; the order check needs several blocked-Match class pairs (k = 1 decides every pair in blocking)", len(first.Matches))
	}
	for run := 0; run < 3; run++ {
		again, err := runLocalSession(t, aliceData, bobData, cfg, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Matches, again.Matches) {
			t.Fatalf("run %d returned Matches in a different order", run)
		}
	}
}

// TestHolderRefusesOutOfDomainRecord: the querying party derives the
// packed slot width from the schema's published domains and broadcasts it
// in the parameters; a holder with a record outside them — either holder —
// publishes its view, receives the key, and stops before encrypting
// anything.
func TestHolderRefusesOutOfDomainRecord(t *testing.T) {
	data, _ := sessionWorkload(t, 30)
	schema := data.Schema()
	age, _ := schema.Index(adult.AttrAge)
	bad := dataset.New(schema)
	for i, rec := range data.Records() {
		if i == 2 {
			rec.Cells = append([]dataset.Cell(nil), rec.Cells...)
			rec.Cells[age] = dataset.NumCell(500) // the hierarchy ends at 81
		}
		bad.MustAppend(rec)
	}
	qids, err := schema.Resolve(adult.DefaultQIDs())
	if err != nil {
		t.Fatal(err)
	}
	rule, err := blocking.RuleFor(schema, qids, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := smc.SpecFromRule(rule, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.BoundBySchema(schema, qids)
	sk, err := paillier.GenerateKey(crand.Reader, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, isAlice := range []bool{true, false} {
		query, holder := smc.NewConnPair()
		_, peer := smc.NewConnPair()
		errs := make(chan error, 1)
		go func() { errs <- RunHolder(holder, peer, HolderConfig{Data: bad, K: 4}, isAlice) }()
		if err := query.Send(&smc.Message{Kind: smc.MsgParams, QIDs: adult.DefaultQIDs(), Spec: spec}); err != nil {
			t.Fatal(err)
		}
		if m, err := query.Recv(); err != nil || m.Kind != smc.MsgView {
			t.Fatalf("expected the holder's view, got %+v, %v", m, err)
		}
		if err := query.Send(&smc.Message{Kind: smc.MsgPublicKey, N: sk.N}); err != nil {
			t.Fatal(err)
		}
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "record 2") || !strings.Contains(err.Error(), "published domain") {
			t.Errorf("holder (alice=%v) returned %v, want a refusal naming record 2", isAlice, err)
		}
	}
}
