package session

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"pprl/internal/adult"
	"pprl/internal/blocking"
	"pprl/internal/dataset"
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
// the querying party's result. A holder's error fails the test unless the
// query failed first: then its links close under the holders, as a
// refusing or interrupted querying party's would.
func runLocalSession(t *testing.T, aliceData, bobData *dataset.Dataset, cfg QueryConfig, alice, bob HolderConfig) (*QueryResult, error) {
	t.Helper()
	qa, aq := smc.NewConnPair()
	qb, bq := smc.NewConnPair()
	ab, ba := smc.NewConnPair()
	alice.Data, bob.Data = aliceData, bobData
	errs := make(chan error, 2)
	go func() { errs <- RunHolder(aq, ab, alice, true) }()
	go func() { errs <- RunHolder(bq, ba, bob, false) }()
	res, err := RunQuery(qa, qb, cfg)
	if err != nil {
		qa.Close()
		qb.Close()
	}
	for range 2 {
		if herr := <-errs; err == nil && herr != nil {
			t.Fatalf("holder error: %v", herr)
		}
	}
	return res, err
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

// TestQueryRefusesNegativeAllowance: a negative budget, absolute or
// fractional, is refused as core.Link refuses it, and before the
// parameters go out: neither holder receives anything.
func TestQueryRefusesNegativeAllowance(t *testing.T) {
	aliceData, bobData := sessionWorkload(t, 30)
	for _, cfg := range []QueryConfig{{Allowance: -5}, {AllowanceFraction: -0.1}} {
		cfg.Schema, cfg.QIDs, cfg.Theta, cfg.KeyBits = aliceData.Schema(), adult.DefaultQIDs(), 0.05, testKeyBits
		qa, aq := smc.NewConnPair()
		qb, bq := smc.NewConnPair()
		ab, ba := smc.NewConnPair()
		errs := make(chan error, 2)
		go func() { errs <- RunHolder(aq, ab, HolderConfig{Data: aliceData, K: 4}, true) }()
		go func() { errs <- RunHolder(bq, ba, HolderConfig{Data: bobData, K: 4}, false) }()
		res, err := RunQuery(qa, qb, cfg)
		qa.Close()
		qb.Close()
		if err == nil || !strings.Contains(err.Error(), "negative SMC allowance") {
			t.Errorf("allowance %d, fraction %v: RunQuery returned %v (result %+v), want the negative allowance refused", cfg.Allowance, cfg.AllowanceFraction, err, res)
		}
		if qa.Bytes() != 0 || qb.Bytes() != 0 {
			t.Errorf("allowance %d, fraction %v: the query sent %d and %d bytes before refusing", cfg.Allowance, cfg.AllowanceFraction, qa.Bytes(), qb.Bytes())
		}
		for range 2 {
			if herr := <-errs; herr == nil || !strings.Contains(herr.Error(), "receiving parameters") {
				t.Errorf("allowance %d, fraction %v: holder returned %v, want it to have waited for parameters that never came", cfg.Allowance, cfg.AllowanceFraction, herr)
			}
		}
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
	first, err := runLocalSession(t, aliceData, bobData, cfg, HolderConfig{K: 1}, HolderConfig{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Matches) < 8 {
		t.Fatalf("only %d matches; the order check needs several blocked-Match class pairs (k = 1 decides every pair in blocking)", len(first.Matches))
	}
	for run := 0; run < 3; run++ {
		again, err := runLocalSession(t, aliceData, bobData, cfg, HolderConfig{K: 1}, HolderConfig{K: 1})
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
// refuses before it publishes its view, as it does a continuous value the
// circuit would round (40.5 at Scale 1).
func TestHolderRefusesOutOfDomainRecord(t *testing.T) {
	data, _ := sessionWorkload(t, 30)
	schema := data.Schema()
	age, _ := schema.Index(adult.AttrAge)
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
	for _, row := range []struct {
		age  float64
		want string
	}{
		{500, "published domain"}, // the hierarchy ends at 81
		{40.5, `attribute "age" value 40.5 is not a whole multiple`},
	} {
		bad := dataset.New(schema)
		for i, rec := range data.Records() {
			if i == 2 {
				rec.Cells = append([]dataset.Cell(nil), rec.Cells...)
				rec.Cells[age] = dataset.NumCell(row.age)
			}
			bad.MustAppend(rec)
		}
		for _, isAlice := range []bool{true, false} {
			query, holder := smc.NewConnPair()
			_, peer := smc.NewConnPair()
			errs := make(chan error, 1)
			go func() { errs <- RunHolder(holder, peer, HolderConfig{Data: bad, K: 4}, isAlice) }()
			if err := query.Send(&smc.Message{Kind: smc.MsgParams, QIDs: adult.DefaultQIDs(), Spec: spec}); err != nil {
				t.Fatal(err)
			}
			var err error
			select {
			case err = <-errs:
			case <-time.After(10 * time.Second): // a holder that published waits for the key
				t.Fatalf("age %v, holder (alice=%v) did not refuse", row.age, isAlice)
			}
			if err == nil || !strings.Contains(err.Error(), "record 2") || !strings.Contains(err.Error(), row.want) {
				t.Errorf("age %v, holder (alice=%v) returned %v, want a refusal naming record 2", row.age, isAlice, err)
			}
			if holder.Bytes() != 0 {
				t.Errorf("age %v, holder (alice=%v) sent %d bytes, its view among them, before refusing", row.age, isAlice, holder.Bytes())
			}
		}
	}
}

// TestHolderRefusesBeforeView: a holder refuses parameters it cannot
// serve — a QID its schema lacks, a value the circuit would round —
// before its view leaves: the querying party's conn carries no MsgView
// frame.
func TestHolderRefusesBeforeView(t *testing.T) {
	data, _ := sessionWorkload(t, 20)
	schema := data.Schema()
	age, _ := schema.Index(adult.AttrAge)
	fractional := dataset.New(schema)
	for i, rec := range data.Records() {
		if i == 2 {
			rec.Cells = append([]dataset.Cell(nil), rec.Cells...)
			rec.Cells[age] = dataset.NumCell(40.5)
		}
		fractional.MustAppend(rec)
	}
	for _, tc := range []struct {
		name   string
		holder HolderConfig
		qids   []string
	}{
		{"unresolvable-qid", HolderConfig{Data: data, K: 4}, []string{"no-such-attribute"}},
		{"non-integral", HolderConfig{Data: fractional, K: 4}, adult.DefaultQIDs()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, h := smc.NewConnPair()
			errs := make(chan error, 1)
			go func() { errs <- RunHolder(h, nil, tc.holder, true) }()
			if err := q.Send(&smc.Message{Kind: smc.MsgParams, QIDs: tc.qids, Spec: &smc.Spec{Scale: 1}}); err != nil {
				t.Fatal(err)
			}
			if err := <-errs; err == nil {
				t.Fatal("holder accepted the parameters")
			}
			q.Close() // Recv now drains what the holder sent, then fails
			views := 0
			for {
				m, err := q.Recv()
				if err != nil {
					break
				}
				if m.Kind == smc.MsgView {
					views++
				}
			}
			if views != 0 {
				t.Errorf("holder published %d view(s) before refusing", views)
			}
		})
	}
}
