package session

import (
	"testing"

	"pprl/internal/adult"
	"pprl/internal/smc"
)

// runTierSession wires a three-party session whose holders share a tier
// key, so the querying party can enable the triage tier.
func runTierSession(t *testing.T, n int, cfg QueryConfig) *QueryResult {
	t.Helper()
	aliceData, bobData := sessionWorkload(t, n)
	if cfg.Schema == nil {
		cfg.Schema = aliceData.Schema()
	}
	key := []byte("session-tier-test-key")
	qa, aq := smc.NewConnPair()
	qb, bq := smc.NewConnPair()
	ab, ba := smc.NewConnPair()
	errs := make(chan error, 2)
	go func() {
		errs <- RunHolder(aq, ab, HolderConfig{Data: aliceData, K: 6, TierKey: key}, true)
	}()
	go func() {
		errs <- RunHolder(bq, ba, HolderConfig{Data: bobData, K: 6, TierKey: key}, false)
	}()
	res, err := RunQuery(qa, qb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if herr := <-errs; herr != nil {
			t.Fatalf("holder error: %v", herr)
		}
	}
	return res
}

// TestSessionTierTriage: with the tier on and a full allowance, the tier
// partitions the Unknown pair space exactly and the SMC budget is spent
// only on the uncertain band.
func TestSessionTierTriage(t *testing.T) {
	cfg := QueryConfig{
		QIDs:              adult.DefaultQIDs(),
		Theta:             0.05,
		AllowanceFraction: 1.0,
		KeyBits:           testKeyBits,
		Tier:              &smc.TierParams{}, // defaults: m=1000, k=30, q=2
	}
	res := runTierSession(t, 100, cfg)

	labeled := res.TierNonMatchedPairs
	if labeled+res.TierUncertainPairs != res.UnknownPairs {
		t.Errorf("tier accounting does not partition the Unknown space: %d+%d != %d",
			labeled, res.TierUncertainPairs, res.UnknownPairs)
	}
	if labeled == 0 {
		t.Error("tier labeled nothing; thresholds or encodings are broken")
	}
	// Full allowance: every uncertain pair is purchased, nothing more.
	if res.Invocations != res.TierUncertainPairs {
		t.Errorf("invocations = %d, want exactly the uncertain band %d",
			res.Invocations, res.TierUncertainPairs)
	}
	if res.Invocations >= res.UnknownPairs {
		t.Errorf("tier saved no SMC work: %d invocations for %d unknown pairs",
			res.Invocations, res.UnknownPairs)
	}
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
	full.Tier = &smc.TierParams{}
	starved := base
	starved.Allowance = 3
	starved.Tier = &smc.TierParams{}

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

// TestHolderRequiresTierKey: a holder without a shared tier key must
// refuse a query that enables the tier, before any encodings leave.
func TestHolderRequiresTierKey(t *testing.T) {
	data, _ := sessionWorkload(t, 20)
	q, h := smc.NewConnPair()
	errs := make(chan error, 1)
	go func() {
		errs <- RunHolder(h, nil, HolderConfig{Data: data, K: 4}, true)
	}()
	if err := q.Send(&smc.Message{
		Kind: smc.MsgParams,
		QIDs: adult.DefaultQIDs(),
		Spec: &smc.Spec{Scale: 1},
		Tier: &smc.TierParams{M: 64, K: 4, Q: 2},
	}); err != nil {
		t.Fatal(err)
	}
	// The holder publishes its view, then must fail on the missing key.
	if msg, err := q.Recv(); err != nil || msg.Kind != smc.MsgView {
		t.Fatalf("expected the view first: kind=%v err=%v", msg, err)
	}
	if err := <-errs; err == nil {
		t.Fatal("holder accepted a tier query without a tier key")
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
			Tier:    &smc.TierParams{},
			TierLow: low,
		}
		if _, err := RunQuery(qa, qb, cfg); err == nil {
			t.Errorf("TierLow %v should fail validation", low)
		}
	}
}
