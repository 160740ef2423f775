package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pprl/internal/adult"
	"pprl/internal/anonymize"
	"pprl/internal/dataset"
	"pprl/internal/heuristic"
	"pprl/internal/match"
	"pprl/internal/vgh"
)

// workload builds the paper's experimental construction at small scale:
// one Adult-like dataset split into two overlapping relations.
func workload(t testing.TB, n int, seed int64) (alice, bob *dataset.Dataset) {
	t.Helper()
	full := adult.Generate(n, seed)
	return dataset.SplitOverlap(full, rand.New(rand.NewSource(seed+1)))
}

func truth(t testing.TB, alice, bob *dataset.Dataset, res *Result) []match.Pair {
	t.Helper()
	pairs, err := match.TruePairs(alice, bob, res.QIDs(), res.Rule())
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

func TestLinkDefaultsEndToEnd(t *testing.T) {
	alice, bob := workload(t, 600, 42)
	cfg := DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 8, 8
	res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Block.TotalPairs() != int64(alice.Len())*int64(bob.Len()) {
		t.Errorf("TotalPairs = %d", res.Block.TotalPairs())
	}
	eff := res.BlockingEfficiency()
	if eff <= 0 || eff > 1 {
		t.Errorf("blocking efficiency = %v", eff)
	}
	tr := truth(t, alice, bob, res)
	if len(tr) == 0 {
		t.Fatal("workload should contain true matches (shared d3 partition)")
	}
	conf := res.Evaluate(tr)
	if conf.Precision() != 1 {
		t.Errorf("precision = %v, want exactly 1 under maximize-precision", conf.Precision())
	}
	if conf.Recall() < 0 || conf.Recall() > 1 {
		t.Errorf("recall = %v out of range", conf.Recall())
	}
	if res.Invocations > res.Allowance {
		t.Errorf("invocations %d exceed allowance %d", res.Invocations, res.Allowance)
	}
	if res.Summary() == "" {
		t.Error("empty summary")
	}
}

// TestExtremeScenarios reproduces Section III's two extremes: k=1 gives
// full blocking and zero SMC cost with perfect recall; k=n degrades the
// anonymized views to the root and leaves (almost) everything to SMC.
func TestExtremeScenarios(t *testing.T) {
	alice, bob := workload(t, 240, 7)

	cfg := DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 1, 1
	cfg.Allowance = -0 // fraction applies
	cfg.AllowanceFraction = 0
	res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockingEfficiency() != 1 {
		t.Errorf("k=1 blocking efficiency = %v, want 1 (anonymized relation is the original)", res.BlockingEfficiency())
	}
	if res.Invocations != 0 {
		t.Errorf("k=1 used %d SMC invocations, want 0", res.Invocations)
	}
	conf := res.Evaluate(truth(t, alice, bob, res))
	if conf.Recall() != 1 || conf.Precision() != 1 {
		t.Errorf("k=1: %v, want perfect linkage at zero SMC cost", conf)
	}

	cfg2 := DefaultConfig(adult.DefaultQIDs())
	cfg2.AliceK, cfg2.BobK = alice.Len(), bob.Len()
	cfg2.AllowanceFraction = 0
	res2, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if eff := res2.BlockingEfficiency(); eff != 0 {
		t.Errorf("k=n blocking efficiency = %v, want 0 (every pair unknown, pure-SMC costs)", eff)
	}
	conf2 := res2.Evaluate(truth(t, alice, bob, res2))
	if conf2.Recall() != 0 {
		t.Errorf("k=n with zero allowance recall = %v, want 0", conf2.Recall())
	}
	if conf2.Precision() != 1 {
		t.Errorf("precision still must be 1, got %v", conf2.Precision())
	}
}

func TestRecallMonotoneInAllowance(t *testing.T) {
	alice, bob := workload(t, 360, 11)
	prev := -1.0
	for _, frac := range []float64{0, 0.005, 0.02, 1.0} {
		cfg := DefaultConfig(adult.DefaultQIDs())
		cfg.AliceK, cfg.BobK = 32, 32
		cfg.AllowanceFraction = frac
		res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := res.Evaluate(truth(t, alice, bob, res)).Recall()
		if rec < prev-1e-12 {
			t.Errorf("recall decreased from %v to %v as allowance grew to %v", prev, rec, frac)
		}
		prev = rec
		if frac == 1.0 && rec != 1 {
			t.Errorf("full allowance recall = %v, want 1", rec)
		}
	}
}

func TestMaximizeRecallStrategy(t *testing.T) {
	alice, bob := workload(t, 240, 13)
	cfg := DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 32, 32
	cfg.Strategy = MaximizeRecall
	cfg.AllowanceFraction = 0.001
	res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conf := res.Evaluate(truth(t, alice, bob, res))
	if conf.Recall() != 1 {
		t.Errorf("maximize-recall recall = %v, want 1 (residual pairs match)", conf.Recall())
	}
	// With a tiny budget at k=32 the paper predicts poor precision.
	if conf.Precision() >= 0.5 {
		t.Logf("note: maximize-recall precision unexpectedly high: %v", conf.Precision())
	}
	if res.MatchedPairCount() <= res.Block.MatchedPairs {
		t.Error("maximize-recall should report residual matches")
	}
}

func TestTrainClassifierStrategy(t *testing.T) {
	alice, bob := workload(t, 240, 17)
	cfg := DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 16, 16
	cfg.Strategy = TrainClassifier
	cfg.AllowanceFraction = 0.01
	cfg.Seed = 99
	res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conf := res.Evaluate(truth(t, alice, bob, res))
	if conf.Recall() < 0 || conf.Recall() > 1 || conf.Precision() < 0 || conf.Precision() > 1 {
		t.Errorf("classifier strategy out-of-range metrics: %v", conf)
	}
	// Zero-allowance classifier degenerates to all-non-match.
	cfg.AllowanceFraction = 0
	res0, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res0.MatchedPairCount(); got != res0.Block.MatchedPairs {
		t.Errorf("untrained classifier matched %d pairs beyond blocking", got-res0.Block.MatchedPairs)
	}
}

func TestHeuristicsAffectOrderNotSoundness(t *testing.T) {
	alice, bob := workload(t, 300, 19)
	for _, h := range heuristic.All() {
		cfg := DefaultConfig(adult.DefaultQIDs())
		cfg.AliceK, cfg.BobK = 32, 32
		cfg.Heuristic = h
		cfg.AllowanceFraction = 0.01
		res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		conf := res.Evaluate(truth(t, alice, bob, res))
		if conf.Precision() != 1 {
			t.Errorf("%s: precision %v != 1", h.Name(), conf.Precision())
		}
	}
}

func TestMixedAnonymizersAndKs(t *testing.T) {
	// The paper: "Participants can choose different anonymization
	// methods, anonymity levels, quasi-identifier attribute sets."
	alice, bob := workload(t, 240, 23)
	cfg := DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 4, 64
	cfg.AliceAnonymizer = anonymize.NewDataFly()
	cfg.BobAnonymizer = anonymize.NewMaxEntropy()
	res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if conf := res.Evaluate(truth(t, alice, bob, res)); conf.Precision() != 1 {
		t.Errorf("mixed configuration broke the precision guarantee: %v", conf)
	}
}

func TestLinkPrepared(t *testing.T) {
	alice, bob := workload(t, 240, 37)
	cfg := DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 16, 16
	full, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Re-finishing over the cached block with the same config must
	// reproduce the one-shot result.
	again, err := LinkPrepared(Holder{Data: alice}, Holder{Data: bob}, full.Block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Invocations != again.Invocations || full.MatchedPairCount() != again.MatchedPairCount() {
		t.Errorf("LinkPrepared diverged: %d/%d vs %d/%d",
			full.Invocations, full.MatchedPairCount(), again.Invocations, again.MatchedPairCount())
	}
	// A config over a different QID set must be rejected.
	bad := DefaultConfig(adult.TopQIDs(3))
	bad.AliceK, bad.BobK = 16, 16
	if _, err := LinkPrepared(Holder{Data: alice}, Holder{Data: bob}, full.Block, bad); err == nil {
		t.Error("LinkPrepared should reject a QID mismatch")
	}
}

func TestSMCInvariants(t *testing.T) {
	alice, bob := workload(t, 300, 41)
	cfg := DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 32, 32
	cfg.AllowanceFraction = 0.005
	res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Invocations equal min(allowance, unknown pairs).
	want := res.Allowance
	if res.Block.UnknownPairs < want {
		want = res.Block.UnknownPairs
	}
	if res.Invocations != want {
		t.Errorf("invocations = %d, want %d", res.Invocations, want)
	}
	if res.SMCResolvedPairs() != res.Invocations {
		t.Errorf("resolved pairs %d != invocations %d", res.SMCResolvedPairs(), res.Invocations)
	}
	// The oracle moves no bytes; the real protocol does (the smc tests).
	if res.SMCBytes != 0 {
		t.Errorf("oracle SMCBytes = %d, want 0", res.SMCBytes)
	}
}

func TestConfigValidation(t *testing.T) {
	alice, bob := workload(t, 60, 31)
	mk := func(mut func(*Config)) error {
		cfg := DefaultConfig(adult.DefaultQIDs())
		mut(&cfg)
		_, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
		return err
	}
	if err := mk(func(c *Config) { c.QIDs = nil }); err == nil {
		t.Error("missing QIDs should fail")
	}
	if err := mk(func(c *Config) { c.QIDs = []string{"bogus"} }); err == nil {
		t.Error("unknown QID should fail")
	}
	if err := mk(func(c *Config) { c.Theta = 0 }); err == nil {
		t.Error("zero theta should fail")
	}
	if err := mk(func(c *Config) { c.Thresholds = []float64{0.1} }); err == nil {
		t.Error("threshold arity mismatch should fail")
	}
	if err := mk(func(c *Config) { c.AliceK = 0 }); err == nil {
		t.Error("k=0 should fail")
	}
	if err := mk(func(c *Config) { c.AllowanceFraction = -1 }); err == nil {
		t.Error("negative allowance should fail")
	}
	if err := mk(func(c *Config) { c.Strategy = Strategy(99) }); err == nil {
		t.Error("unknown strategy should fail")
	}
	if _, err := Link(Holder{}, Holder{Data: bob}, DefaultConfig(adult.DefaultQIDs())); err == nil {
		t.Error("nil data should fail")
	}
	other := adult.Generate(10, 1)
	if _, err := Link(Holder{Data: alice}, Holder{Data: other}, DefaultConfig(adult.DefaultQIDs())); err == nil {
		t.Error("different schema instances should fail")
	}
}

// TestProgressCallback: Link reports every stage, in order, with the
// tier off, with it on and under DP — repeated blocking and smc events
// included — and its last smc event is the final position. On each row
// LinkPrepared over Prepare's block equals Link.
func TestProgressCallback(t *testing.T) {
	alice, bob := workload(t, 240, 53)
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want []string
	}{
		{"tier-off", func(*Config) {},
			[]string{"anonymize-alice", "anonymize-bob", "blocking", "order", "comparator", "smc"}},
		{"tier-on", func(c *Config) { c.Tier = TierBloom },
			[]string{"anonymize-alice", "anonymize-bob", "blocking", "order", "tier", "comparator", "smc"}},
		{"dp", func(c *Config) { c.Epsilon, c.DPSeed, c.Allowance = 8, 7, 3000 },
			[]string{"anonymize-alice", "anonymize-bob", "dp-noise", "blocking", "order", "comparator", "smc"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(adult.DefaultQIDs())
			cfg.AliceK, cfg.BobK = 16, 16
			tc.set(&cfg)
			var stages []string
			var lastDone, lastTotal int64
			cfg.Progress = func(stage string, done, total int64) {
				if n := len(stages); n == 0 || stages[n-1] != stage {
					stages = append(stages, stage)
				}
				if stage == "smc" {
					if done < lastDone {
						t.Errorf("smc progress went backwards: %d after %d", done, lastDone)
					}
					lastDone, lastTotal = done, total
				}
			}
			res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(stages, tc.want) {
				t.Errorf("events = %v, want %v", stages, tc.want)
			}
			if lastDone != res.Invocations || lastTotal != res.Allowance {
				t.Errorf("final smc progress %d/%d, want %d/%d", lastDone, lastTotal, res.Invocations, res.Allowance)
			}

			// Prepare is Link's first half: finishing it reproduces Link.
			cfg.Progress = nil
			block, _, err := Prepare(Holder{Data: alice}, Holder{Data: bob}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			again, err := LinkPrepared(Holder{Data: alice}, Holder{Data: bob}, block, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := [5]int64{again.Block.MatchedPairs, again.Block.UnknownPairs, again.Invocations, again.MatchedPairCount(), again.TierNonMatchedPairs()},
				[5]int64{res.Block.MatchedPairs, res.Block.UnknownPairs, res.Invocations, res.MatchedPairCount(), res.TierNonMatchedPairs()}; got != want {
				t.Errorf("LinkPrepared(Prepare) blocked/unknown/invocations/matched/tiered = %v, Link %v", got, want)
			}
			sameLabeling(t, res, again, alice.Len(), bob.Len())
		})
	}
}

// TestResultStagesTileTheCall: a tier-on Link's result times every stage
// it reported, in order, and the stages sum to no more than the call's
// wall time.
func TestResultStagesTileTheCall(t *testing.T) {
	alice, bob := workload(t, 240, 53)
	cfg := DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 16, 16
	cfg.Tier = TierBloom
	start := time.Now()
	res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"anonymize-alice", "anonymize-bob", "blocking", "order", "tier", "comparator", "smc"}
	var names []string
	var sum time.Duration
	for _, st := range res.Stages {
		names = append(names, st.Name)
		sum += st.Time
	}
	if !slices.Equal(names, want) {
		t.Errorf("stages = %v, want %v", names, want)
	}
	if sum <= 0 || sum > wall {
		t.Errorf("stages sum to %v, the call took %v", sum, wall)
	}
	if res.Invocations > 0 && res.SMCRate() != float64(res.Invocations)/res.Stages.Of("smc").Seconds() {
		t.Errorf("SMCRate %v does not read the smc stage %v", res.SMCRate(), res.Stages.Of("smc"))
	}
}

// TestEndToEndSoundnessProperty is the engine-level statement of the
// paper's central guarantee: for random workloads, anonymizers,
// thresholds, budgets and heuristics, the maximize-precision pipeline
// never reports a false match, and every M-blocked pair it reports is
// consistent with the exact rule.
func TestEndToEndSoundnessProperty(t *testing.T) {
	anonymizers := []anonymize.Anonymizer{
		anonymize.NewMaxEntropy(), anonymize.NewDataFly(), anonymize.NewMondrian(),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		full := adult.Generate(60+rng.Intn(120), seed)
		alice, bob := dataset.SplitOverlap(full, rand.New(rand.NewSource(seed+1)))
		cfg := DefaultConfig(adult.TopQIDs(2 + rng.Intn(4)))
		cfg.AliceK = 1 + rng.Intn(16)
		cfg.BobK = 1 + rng.Intn(16)
		cfg.Theta = 0.01 + rng.Float64()*0.2
		cfg.AllowanceFraction = rng.Float64() * 0.05
		cfg.AliceAnonymizer = anonymizers[rng.Intn(len(anonymizers))]
		cfg.BobAnonymizer = anonymizers[rng.Intn(len(anonymizers))]
		cfg.Heuristic = heuristic.All()[rng.Intn(3)]
		res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		tr, err := match.TruePairs(alice, bob, res.QIDs(), res.Rule())
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		conf := res.Evaluate(tr)
		if conf.Precision() != 1 {
			t.Logf("seed %d: precision %v", seed, conf.Precision())
			return false
		}
		if conf.FalsePositives != 0 {
			t.Logf("seed %d: %d false positives", seed, conf.FalsePositives)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyString(t *testing.T) {
	if MaximizePrecision.String() != "maximize-precision" ||
		MaximizeRecall.String() != "maximize-recall" ||
		TrainClassifier.String() != "train-classifier" {
		t.Error("Strategy.String broken")
	}
}

// TestSecureLinkRefusesOutOfDomainRecord: the packed slot width is derived
// from the schema's published domains, so a record outside them cannot be
// compared, and the circuit compares integers, so a fractional continuous
// value would be bought rounded (40.5 as 40). Either holder's such record
// is refused by name before anything is encrypted.
func TestSecureLinkRefusesOutOfDomainRecord(t *testing.T) {
	alice, bob := workload(t, 45, 29)
	cfg := DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 8, 8
	cfg.Allowance = 20
	cfg.Comparator = SecureComparatorFactory(256)
	age, _ := alice.Schema().Index(adult.AttrAge)
	for _, c := range []struct {
		age  float64
		want string
	}{
		{500, "published domain"}, // the hierarchy ends at 81
		{40.5, "not a whole multiple"},
	} {
		bad := func(d *dataset.Dataset) *dataset.Dataset {
			out := dataset.New(d.Schema())
			for i, rec := range d.Records() {
				if i == 3 {
					rec.Cells = append([]dataset.Cell(nil), rec.Cells...)
					rec.Cells[age] = dataset.NumCell(c.age)
				}
				out.MustAppend(rec)
			}
			return out
		}
		if _, err := Link(Holder{Data: bad(alice)}, Holder{Data: bob}, cfg); err == nil ||
			!strings.Contains(err.Error(), "alice: record 3") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("alice's age %v: error %v, want a refusal naming it", c.age, err)
		}
		if _, err := Link(Holder{Data: alice}, Holder{Data: bad(bob)}, cfg); err == nil ||
			!strings.Contains(err.Error(), "bob: record 3") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("bob's age %v: error %v, want a refusal naming it", c.age, err)
		}
	}
}

// TestLinkSquaresFarDifferences: on a domain wide enough that a squared
// difference passes 2^63 — two records a side, 0 and 3.1e9 on [0, 1e10] —
// both comparators buy exactly the two equal pairs. The square of 3.1e9
// used to wrap negative, under every threshold, and all four pairs were
// bought as matches: precision 0.5 under maximize-precision.
func TestLinkSquaresFarDifferences(t *testing.T) {
	schema := dataset.MustSchema(dataset.NumAttr(vgh.MustIntervalHierarchy("x", 0, 1e10, 10, 4)))
	rel := func() *dataset.Dataset {
		d := dataset.New(schema)
		for i, v := range []float64{0, 3.1e9} {
			d.MustAppend(dataset.Record{EntityID: i, Cells: []dataset.Cell{dataset.NumCell(v)}})
		}
		return d
	}
	alice, bob := rel(), rel()
	for name, factory := range map[string]ComparatorFactory{"plain": PlainComparatorFactory, "secure": SecureComparatorFactory(256)} {
		cfg := DefaultConfig([]string{"x"})
		cfg.AliceK, cfg.BobK = 2, 2
		cfg.AllowanceFraction = 1
		cfg.Comparator = factory
		res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Invocations != 4 {
			t.Fatalf("%s: %d pairs purchased, want all 4", name, res.Invocations)
		}
		if got := res.Matches(); len(got) != 2 || res.PairMatched(0, 1) || res.PairMatched(1, 0) {
			t.Errorf("%s: matches %v, want (0,0) and (1,1)", name, got)
		}
		if conf := res.Evaluate(truth(t, alice, bob, res)); conf.FalsePositives+conf.FalseNegatives != 0 {
			t.Errorf("%s: %+v against the clear-text rule", name, conf)
		}
	}
}
