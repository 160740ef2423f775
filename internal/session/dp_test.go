package session

import (
	"strings"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/dpblock"
	"pprl/internal/smc"
	"pprl/internal/vgh"
)

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
	_, err := runLocalSession(t, aliceData, bobData, cfg,
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
