package session

import (
	"sort"
	"strings"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/dpblock"
	"pprl/internal/match"
	"pprl/internal/smc"
	"pprl/internal/vgh"
)

// reconstructPad replays a holder's deterministic padding pass (same
// data, same derived seed) to recover the private handle→record map the
// holder never sent. Only a test can do this; the querying party lacks
// the seed.
func reconstructPad(t *testing.T, d *dataset.Dataset, hc HolderConfig, role string, qids []int) *dpblock.PadMap {
	t.Helper()
	binner, err := dpblock.New(dpblock.Params{
		Epsilon: hc.Epsilon, Delta: hc.DPDelta,
		Seed: dpblock.HolderSeed(hc.DPSeed, role), Level: hc.DPLevel,
	})
	if err != nil {
		t.Fatal(err)
	}
	view, err := binner.Anonymize(d, qids, hc.K)
	if err != nil {
		t.Fatal(err)
	}
	if err := dpblock.Publish(view, binner.Params()); err != nil {
		t.Fatal(err)
	}
	pad, err := dpblock.Pad(view)
	if err != nil {
		t.Fatal(err)
	}
	return pad
}

// runLocalDPSession wires the three roles with DP-publishing holders.
func runLocalDPSession(t *testing.T, aliceData, bobData *dataset.Dataset, cfg QueryConfig, aliceHC, bobHC HolderConfig) (*QueryResult, error) {
	t.Helper()
	qa, aq := smc.NewConnPair()
	qb, bq := smc.NewConnPair()
	ab, ba := smc.NewConnPair()
	aliceHC.Data, bobHC.Data = aliceData, bobData
	errs := make(chan error, 2)
	go func() { errs <- RunHolder(aq, ab, aliceHC, true) }()
	go func() { errs <- RunHolder(bq, ba, bobHC, false) }()
	res, err := RunQuery(qa, qb, cfg)
	if err != nil {
		// Unblock the holders before draining their errors.
		qa.Close()
		qb.Close()
		<-errs
		<-errs
		return nil, err
	}
	for i := 0; i < 2; i++ {
		if herr := <-errs; herr != nil {
			t.Fatalf("holder error: %v", herr)
		}
	}
	return res, nil
}

// TestSessionDPEndToEnd: both holders publish padded noised releases,
// the querying party blocks on bin intersection and buys comparisons in
// the handle space, and every reported match — translated back through
// the holders' private pad maps — is exact.
func TestSessionDPEndToEnd(t *testing.T) {
	aliceData, bobData := sessionWorkload(t, 120)
	cfg := QueryConfig{
		Schema:    aliceData.Schema(),
		QIDs:      adult.DefaultQIDs(),
		Theta:     0.05,
		Allowance: 4000,
		KeyBits:   testKeyBits,
	}
	aliceHC := HolderConfig{Epsilon: 8, DPSeed: 1}
	bobHC := HolderConfig{Epsilon: 8, DPSeed: 2}
	res, err := runLocalDPSession(t, aliceData, bobData, cfg, aliceHC, bobHC)
	if err != nil {
		t.Fatal(err)
	}
	if res.AliceView.DP == nil || res.BobView.DP == nil {
		t.Fatal("views lost their noised releases in transit")
	}
	if got := res.AliceView.DP.Epsilon + res.BobView.DP.Epsilon; got != 16 {
		t.Errorf("composed ε = %v, want 8 + 8", got)
	}
	if res.AliceView.Method != "dp" || res.BobView.Method != "dp" {
		t.Errorf("view methods = %q/%q", res.AliceView.Method, res.BobView.Method)
	}
	// The wire form withholds the holder's secrets: no noise seed, and
	// member lists stretched to exactly the noised counts so true bin
	// sizes are not recoverable from the release.
	if res.AliceView.DP.Seed != 0 || res.BobView.DP.Seed != 0 {
		t.Errorf("noise seeds crossed the wire: %d/%d", res.AliceView.DP.Seed, res.BobView.DP.Seed)
	}
	for _, v := range []*anonymize.Result{res.AliceView, res.BobView} {
		for i, c := range v.Classes {
			if int64(c.Size()) != v.DP.NoisedCounts[i] {
				t.Fatalf("class %d: %d members on the wire, published count %d", i, c.Size(), v.DP.NoisedCounts[i])
			}
		}
	}
	if res.Invocations > res.Allowance {
		t.Errorf("spent %d over allowance %d", res.Invocations, res.Allowance)
	}
	if res.Invocations == 0 {
		t.Error("no live comparisons; the test needs a real budget")
	}
	// Every reported match must be a true match once translated from
	// handles back to records: DP blocking emits no Match labels and
	// dummy handles can never satisfy the circuit, so matches come only
	// from exact SMC verdicts on real pairs.
	qids, err := aliceData.Schema().Resolve(cfg.QIDs)
	if err != nil {
		t.Fatal(err)
	}
	aPad := reconstructPad(t, aliceData, aliceHC, RoleAlice, qids)
	bPad := reconstructPad(t, bobData, bobHC, RoleBob, qids)
	if len(aPad.RecordOf) != len(res.AliceView.ClassOf) {
		t.Fatalf("reconstructed alice pad spans %d handles, wire view %d",
			len(aPad.RecordOf), len(res.AliceView.ClassOf))
	}
	rule, err := blocking.RuleFor(aliceData.Schema(), qids, cfg.Theta)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := match.TruePairs(aliceData, bobData, qids, rule)
	if err != nil {
		t.Fatal(err)
	}
	trueKeys := make(map[int64]bool, len(truth))
	for _, p := range truth {
		trueKeys[p.Key(bobData.Len())] = true
	}
	keys := make([]int64, 0, len(res.Matches))
	for _, p := range res.Matches {
		ra, rb := aPad.RecordOf[p.I], bPad.RecordOf[p.J]
		if ra < 0 || rb < 0 {
			t.Fatalf("reported match (%d,%d) involves a dummy handle", p.I, p.J)
		}
		rec := match.Pair{I: ra, J: rb}
		if !trueKeys[rec.Key(bobData.Len())] {
			t.Fatalf("reported match (%d,%d) → records (%d,%d) is not a true match", p.I, p.J, ra, rb)
		}
		keys = append(keys, rec.Key(bobData.Len()))
	}
	// The match list is duplicate-free.
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			t.Fatal("duplicate match reported")
		}
	}
}

// TestSessionDPMixedRefused: the querying party refuses a session where
// only one holder opted into DP publishing.
func TestSessionDPMixedRefused(t *testing.T) {
	aliceData, bobData := sessionWorkload(t, 60)
	cfg := QueryConfig{
		Schema:    aliceData.Schema(),
		QIDs:      adult.DefaultQIDs(),
		Theta:     0.05,
		Allowance: 50,
		KeyBits:   testKeyBits,
	}
	_, err := runLocalDPSession(t, aliceData, bobData, cfg,
		HolderConfig{Epsilon: 8, DPSeed: 1},
		HolderConfig{K: 8})
	if err == nil || !strings.Contains(err.Error(), "DP release") {
		t.Fatalf("mixed session: err = %v, want refusal", err)
	}
}

// TestSessionDPAlwaysSpecRefused: a classifier whose every attribute is
// unconditionally accepted matches any pair — dummies included — so a DP
// holder must refuse it before publishing anything.
func TestSessionDPAlwaysSpecRefused(t *testing.T) {
	aliceData, _ := sessionWorkload(t, 30)
	schema := aliceData.Schema()
	qids, err := schema.Resolve(adult.DefaultQIDs())
	if err != nil {
		t.Fatal(err)
	}
	spec := &smc.Spec{Scale: 1, Attrs: make([]smc.AttrSpec, len(qids))}
	for i := range spec.Attrs {
		spec.Attrs[i] = smc.AttrSpec{Mode: smc.ModeAlways}
	}
	if _, err := dpblock.DummyRow(schema, qids, spec, true); err == nil {
		t.Fatal("all-ModeAlways spec accepted; DP padding cannot be hidden in it")
	}
}

// TestSessionDPHolderValidation: holder-side DP parameter mistakes fail
// before anything crosses the wire.
func TestSessionDPHolderValidation(t *testing.T) {
	aliceData, _ := sessionWorkload(t, 30)
	qa, aq := smc.NewConnPair()
	defer qa.Close()
	ab, _ := smc.NewConnPair()
	defer ab.Close()
	err := RunHolder(aq, ab, HolderConfig{Data: aliceData, DPSeed: 3}, true)
	if err == nil || !strings.Contains(err.Error(), "epsilon") {
		t.Fatalf("DP seed without epsilon: err = %v", err)
	}
	err = RunHolder(aq, ab, HolderConfig{Data: aliceData, Epsilon: -2}, true)
	if err == nil {
		t.Fatal("negative epsilon accepted")
	}
}

// TestSessionDPSentinelsInsideValueBound: the padding sentinels sit
// outside the attributes' domains by construction, and the holders refuse
// rows beyond the schema-derived value bound before encrypting anything —
// so the bound has to admit them. The tightest geometries: domains that
// end one short of a power of two, and a two-leaf equality attribute
// against the sentinel −2.
func TestSessionDPSentinelsInsideValueBound(t *testing.T) {
	flag := vgh.Flat("flag", "ANY", "n", "y")
	for _, tc := range []struct {
		name     string
		min, max float64
		theta    float64
	}{
		{"ends at 2^7−1", 0, 127, 0.05},
		{"ends at 2^7−1, wide threshold", 0, 127, 0.9},
		{"negative end at −(2^6−1)", -63, 10, 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			schema := dataset.MustSchema(dataset.CatAttr(flag), dataset.NumAttr(vgh.MustIntervalHierarchy("num", tc.min, tc.max, 2, 2)))
			qids := []int{0, 1}
			rule, err := blocking.RuleFor(schema, qids, tc.theta)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := smc.SpecFromRule(rule, 1)
			if err != nil {
				t.Fatal(err)
			}
			spec.BoundBySchema(schema, qids)
			a, err := dpblock.DummyRow(schema, qids, spec, true)
			if err != nil {
				t.Fatal(err)
			}
			b, err := dpblock.DummyRow(schema, qids, spec, false)
			if err != nil {
				t.Fatal(err)
			}
			// The domain's corners beside each side's sentinel.
			alice := [][]int64{a, {0, int64(tc.min)}, {1, int64(tc.max)}}
			bob := [][]int64{b, {0, int64(tc.min)}, {1, int64(tc.max)}}
			cmp, err := smc.NewLocalSecure(spec, alice, bob, testKeyBits)
			if err != nil {
				t.Fatalf("sentinel rows %v / %v under ValueBits %d: %v", a, b, spec.ValueBits, err)
			}
			defer cmp.Close()
			for i := range alice {
				for j := range bob {
					got, err := cmp.Compare(i, j)
					if err != nil {
						t.Fatal(err)
					}
					if want := i == j && i > 0; got != want {
						t.Errorf("rows %v and %v: matched = %v, want %v", alice[i], bob[j], got, want)
					}
				}
			}
		})
	}
}
