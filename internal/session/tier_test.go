package session

import (
	"testing"
	"time"

	"pprl/internal/adult"
	"pprl/internal/bloom"
	"pprl/internal/dataset"
	"pprl/internal/smc"
)

// runTierSession wires a three-party session whose holders share a tier
// key, so the querying party can enable the triage tier.
func runTierSession(t *testing.T, n int, cfg QueryConfig) *QueryResult {
	t.Helper()
	aliceData, bobData := sessionWorkload(t, n)
	cfg.Schema = aliceData.Schema()
	hc := HolderConfig{K: 6, TierKey: []byte("session-tier-test-key")}
	res, err := runLocalSession(t, aliceData, bobData, cfg, hc, hc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSessionTierBudgetIndependence: tier labels are free, so exhausting
// the SMC budget mid-scan must not truncate the tier's labeling.
func TestSessionTierBudgetIndependence(t *testing.T) {
	base := QueryConfig{
		QIDs:    adult.DefaultQIDs(),
		Theta:   0.05,
		KeyBits: testKeyBits,
	}
	full := base
	full.AllowanceFraction = 1.0
	full.Tier = true
	starved := base
	starved.Allowance = 3
	starved.Tier = true

	fullRes := runTierSession(t, 80, full)
	starvedRes := runTierSession(t, 80, starved)

	if starvedRes.Invocations > 3 {
		t.Errorf("budget exceeded: %d invocations", starvedRes.Invocations)
	}
	if fullRes.TierNonMatchedPairs != starvedRes.TierNonMatchedPairs ||
		fullRes.TierUncertainPairs != starvedRes.TierUncertainPairs {
		t.Errorf("tier labels depend on the allowance: full=(%d,%d) starved=(%d,%d)",
			fullRes.TierNonMatchedPairs, fullRes.TierUncertainPairs,
			starvedRes.TierNonMatchedPairs, starvedRes.TierUncertainPairs)
	}
}

// TestHolderRequiresTierKey: a holder refuses parameters it cannot serve
// — the tier without a shared key, the tier under DP, a QID its schema
// lacks, a value the circuit would round — before its view leaves: the
// querying party's conn carries no MsgView frame.
func TestHolderRequiresTierKey(t *testing.T) {
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
	key := []byte("k")
	for _, tc := range []struct {
		name   string
		holder HolderConfig
		qids   []string
		tier   bool
	}{
		{"missing-key", HolderConfig{Data: data, K: 4}, adult.DefaultQIDs(), true},
		{"dp-with-tier", HolderConfig{Data: data, Epsilon: 1, TierKey: key}, adult.DefaultQIDs(), true},
		{"unresolvable-qid", HolderConfig{Data: data, K: 4, TierKey: key}, []string{"no-such-attribute"}, true},
		{"non-integral", HolderConfig{Data: fractional, K: 4, TierKey: key}, adult.DefaultQIDs(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, h := smc.NewConnPair()
			errs := make(chan error, 1)
			go func() { errs <- RunHolder(h, nil, tc.holder, true) }()
			if err := q.Send(&smc.Message{Kind: smc.MsgParams, QIDs: tc.qids, Spec: &smc.Spec{Scale: 1}, Tier: tc.tier}); err != nil {
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

// TestQueryRejectsBadTierThresholds: threshold validation happens before
// any message is sent.
func TestQueryRejectsBadTierThresholds(t *testing.T) {
	aliceData, _ := sessionWorkload(t, 20)
	qa, _ := smc.NewConnPair()
	qb, _ := smc.NewConnPair()
	for _, low := range []float64{-0.1, 1} {
		cfg := QueryConfig{
			Schema:  aliceData.Schema(),
			QIDs:    adult.DefaultQIDs(),
			Theta:   0.05,
			KeyBits: testKeyBits,
			Tier:    true,
			TierLow: low,
		}
		if _, err := RunQuery(qa, qb, cfg); err == nil {
			t.Errorf("TierLow %v should fail validation", low)
		}
	}
}

// TestHolderEncodesAtFixedShape: the querying party asks for the tier with
// one bit and can size nothing, so a holder with the key publishes one
// ⌈1000/64⌉·8-byte encoding a record, whatever the query, within a
// deadline. (When MsgParams carried the shape, a K of 2^40 kept the holder
// hashing each bigram until the query gave up.)
func TestHolderEncodesAtFixedShape(t *testing.T) {
	data, _ := sessionWorkload(t, 20)
	q, h := smc.NewConnPair()
	defer q.Close()
	go RunHolder(h, nil, HolderConfig{Data: data, K: 4, TierKey: []byte("k")}, true)
	if err := q.Send(&smc.Message{Kind: smc.MsgParams, QIDs: adult.DefaultQIDs(), Spec: &smc.Spec{Scale: 1}, Tier: true}); err != nil {
		t.Fatal(err)
	}
	got := make(chan *smc.Message, 2)
	go func() {
		defer close(got)
		for range 2 {
			m, err := q.Recv()
			if err != nil {
				return
			}
			got <- m
		}
	}()
	for _, want := range []smc.MsgKind{smc.MsgView, smc.MsgEncodings} {
		select {
		case m, ok := <-got:
			if !ok || m.Kind != want {
				t.Fatalf("got %+v, want kind %d", m, want)
			}
			if want != smc.MsgEncodings {
				continue
			}
			if len(m.Encodings) != data.Len() {
				t.Fatalf("%d encodings for %d records", len(m.Encodings), data.Len())
			}
			const size = (bloom.TierM + 63) / 64 * 8
			for i, e := range m.Encodings {
				if len(e) != size {
					t.Fatalf("record %d: %d-byte encoding, want %d", i, len(e), size)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no kind %d frame within 10 s", want)
		}
	}
}
