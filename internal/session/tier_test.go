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
