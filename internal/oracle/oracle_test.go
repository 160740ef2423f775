package oracle

import (
	"math/rand"
	"strings"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/match"
	"pprl/internal/smc"
	"pprl/internal/vgh"
)

func workload(t testing.TB, n int, seed int64) (alice, bob *dataset.Dataset) {
	t.Helper()
	full := adult.Generate(n, seed)
	return dataset.SplitOverlap(full, rand.New(rand.NewSource(seed+1)))
}

// link runs the plaintext-comparator pipeline and returns the result
// with the oracle built over the same relations and rule.
func link(t *testing.T, alice, bob *dataset.Dataset, mut func(*core.Config)) (*core.Result, *Oracle) {
	t.Helper()
	cfg := core.DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 8, 8
	if mut != nil {
		mut(&cfg)
	}
	res, err := core.Link(core.Holder{Data: alice}, core.Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(alice, bob, res.QIDs(), res.Rule())
	if err != nil {
		t.Fatal(err)
	}
	return res, o
}

func TestOracleAgreesWithDefaultPipeline(t *testing.T) {
	alice, bob := workload(t, 360, 42)
	res, o := link(t, alice, bob, nil)
	if err := o.CheckBlocking(res.Block); err != nil {
		t.Errorf("blocking disagrees with oracle: %v", err)
	}
	rep, err := o.CheckResult(res)
	if err != nil {
		t.Fatalf("result check failed: %v", err)
	}
	// The oracle's independent confusion must agree with Evaluate over
	// TruePairs — two different enumeration paths, same ground truth.
	truth, err := match.TruePairs(alice, bob, res.QIDs(), res.Rule())
	if err != nil {
		t.Fatal(err)
	}
	conf := res.Evaluate(truth)
	if rep.Confusion != conf {
		t.Errorf("oracle confusion %+v, Evaluate says %+v", rep.Confusion, conf)
	}
	if int64(len(truth)) != o.TrueMatchCount() {
		t.Errorf("TrueMatchCount %d, hash-join finds %d", o.TrueMatchCount(), len(truth))
	}
	if rep.Confusion.Precision() != 1 {
		t.Errorf("precision %v, want exactly 1", rep.Confusion.Precision())
	}
}

func TestOracleAcceptsMaximizeRecall(t *testing.T) {
	// Under maximize-recall false positives are expected and allowed; the
	// oracle reports them in the confusion without failing.
	alice, bob := workload(t, 240, 7)
	res, o := link(t, alice, bob, func(c *core.Config) {
		c.AliceK, c.BobK = 32, 32
		c.Strategy = core.MaximizeRecall
		c.AllowanceFraction = 0.001
	})
	rep, err := o.CheckResult(res)
	if err != nil {
		t.Fatalf("maximize-recall must not trip the precision invariant: %v", err)
	}
	if rep.Confusion.Recall() != 1 {
		t.Errorf("maximize-recall recall %v, want 1", rep.Confusion.Recall())
	}
	if rep.Confusion.FalsePositives == 0 {
		t.Error("tiny-budget maximize-recall at k=32 should produce false positives")
	}
}

func TestOracleCheckComparator(t *testing.T) {
	alice, bob := workload(t, 120, 11)
	res, o := link(t, alice, bob, nil)
	spec, err := smc.SpecFromRule(res.Rule(), 1)
	if err != nil {
		t.Fatal(err)
	}
	aliceEnc := smc.EncodeRecords(alice, res.QIDs(), 1)
	bobEnc := smc.EncodeRecords(bob, res.QIDs(), 1)
	var pairs [][2]int
	for i := 0; i < alice.Len(); i += 7 {
		for j := 0; j < bob.Len(); j += 5 {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	cmp := smc.NewPlainComparator(spec, aliceEnc, bobEnc)
	for name, c := range map[string]interface {
		CompareBatch([][2]int) ([]bool, error)
	}{"plain comparator": cmp, "the oracle itself": o} {
		if err := o.CheckComparator(c, pairs); err != nil {
			t.Errorf("%s disagrees with oracle: %v", name, err)
		}
	}
	// A comparator that inverts its verdicts must be caught with the
	// offending pair named.
	if err := o.CheckComparator(&lyingComparator{cmp}, pairs); err == nil {
		t.Error("inverted comparator passed the oracle check")
	} else if !strings.Contains(err.Error(), "disagree") {
		t.Errorf("unexpected error text: %v", err)
	}
}

// lyingComparator inverts every verdict of the wrapped comparator.
type lyingComparator struct{ smc.Comparator }

func (l *lyingComparator) CompareBatch(pairs [][2]int) ([]bool, error) {
	out, err := l.Comparator.CompareBatch(pairs)
	for x := range out {
		out[x] = !out[x]
	}
	return out, err
}

// mutantMetric deliberately breaks the slack contract the way ISSUE.md's
// canary prescribes: sds is computed as the infimum, so the supremum it
// reports can undercut the true distance and the slack rule mislabels
// uncertain pairs as Match.
type mutantMetric struct{ distance.Metric }

func (m mutantMetric) Bounds(v, w vgh.Value) (inf, sup float64) {
	inf, _ = m.Metric.Bounds(v, w)
	return inf, inf
}

// mutantRule rebuilds a rule with every metric's sds broken.
func mutantRule(t *testing.T, rule *blocking.Rule) *blocking.Rule {
	t.Helper()
	ms := make([]distance.Metric, rule.Len())
	ths := make([]float64, rule.Len())
	for i := range ms {
		ms[i] = mutantMetric{rule.Metric(i)}
		ths[i] = rule.Threshold(i)
	}
	broken, err := blocking.NewRule(ms, ths)
	if err != nil {
		t.Fatal(err)
	}
	return broken
}

// TestMutantBoundsCanary proves the oracle actually has teeth: blocking
// with a deliberately broken supremum must fail both the bounds
// bracketing check and, end to end, the maximize-precision invariant.
func TestMutantBoundsCanary(t *testing.T) {
	alice, bob := workload(t, 360, 13)
	res, o := link(t, alice, bob, func(c *core.Config) { c.AliceK, c.BobK = 16, 16 })

	broken := mutantRule(t, res.Rule())
	badBlock, err := blocking.Block(res.Block.R, res.Block.S, broken)
	if err != nil {
		t.Fatal(err)
	}
	if badBlock.MatchedPairs <= res.Block.MatchedPairs {
		t.Fatalf("mutant produced no extra Match labels (%d vs %d); canary is vacuous",
			badBlock.MatchedPairs, res.Block.MatchedPairs)
	}
	err = o.CheckBlocking(badBlock)
	if err == nil {
		t.Fatal("oracle accepted blocking built on a broken supremum")
	}
	if !strings.Contains(err.Error(), "blocking error") {
		t.Errorf("unexpected error text: %v", err)
	}

	// End to end: finishing the pipeline over the poisoned blocking must
	// break the precision==1 invariant and CheckResult must say so.
	cfg := core.DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 16, 16
	badRes, err := core.LinkPrepared(core.Holder{Data: alice}, core.Holder{Data: bob}, badBlock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.CheckResult(badRes); err == nil {
		t.Fatal("oracle accepted false positives under maximize-precision")
	} else if !strings.Contains(err.Error(), "false positives") {
		t.Errorf("unexpected error text: %v", err)
	}
}

func TestCheckMonotoneRecallAllowanceSweep(t *testing.T) {
	alice, bob := workload(t, 240, 17)
	res, o := link(t, alice, bob, func(c *core.Config) { c.AliceK, c.BobK = 32, 32 })
	var sweep []*core.Result
	for _, allowance := range []int64{1, 25, 200, res.Block.UnknownPairs + 1} {
		cfg := core.DefaultConfig(adult.DefaultQIDs())
		cfg.AliceK, cfg.BobK = 32, 32
		cfg.Allowance = allowance
		cfg.AllowanceFraction = 0
		r, err := core.LinkPrepared(core.Holder{Data: alice}, core.Holder{Data: bob}, res.Block, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sweep = append(sweep, r)
	}
	if err := o.CheckMonotoneRecall(sweep, "allowance"); err != nil {
		t.Errorf("allowance sweep not monotone: %v", err)
	}
	// Reversing a sweep whose recall strictly grew must fail.
	first, last := sweep[0], sweep[len(sweep)-1]
	rf, err := o.CheckResult(first)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := o.CheckResult(last)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Confusion.Recall() <= rf.Confusion.Recall() {
		t.Skip("workload recall did not grow with allowance; reversal check vacuous")
	}
	if err := o.CheckMonotoneRecall([]*core.Result{last, first}, "allowance"); err == nil {
		t.Error("reversed sweep passed the monotonicity check")
	}
}

func TestViewsNested(t *testing.T) {
	alice, _ := workload(t, 90, 19)
	qids, err := alice.Schema().Resolve(adult.DefaultQIDs())
	if err != nil {
		t.Fatal(err)
	}
	fine, err := anonymize.NewMaxEntropy().Anonymize(alice, qids, 1)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := anonymize.NewMaxEntropy().Anonymize(alice, qids, alice.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !ViewsNested(fine, coarse, alice.Len()) {
		t.Error("root view must cover the identity view")
	}
	if ViewsNested(coarse, fine, alice.Len()) {
		t.Error("identity view cannot cover the root view")
	}
	if !ViewsNested(fine, fine, alice.Len()) {
		t.Error("a view must cover itself")
	}
}

func TestDescribePair(t *testing.T) {
	alice, bob := workload(t, 60, 23)
	_, o := link(t, alice, bob, nil)
	s := o.DescribePair(0, 0)
	if !strings.Contains(s, "match=") || !strings.Contains(s, "d0=") {
		t.Errorf("DescribePair output incomplete: %q", s)
	}
}

func TestOracleValidation(t *testing.T) {
	alice, bob := workload(t, 60, 29)
	res, o := link(t, alice, bob, nil)
	if _, err := New(nil, bob, res.QIDs(), res.Rule()); err == nil {
		t.Error("nil relation accepted")
	}
	if _, err := New(alice, bob, res.QIDs()[:1], res.Rule()); err == nil {
		t.Error("QID/rule arity mismatch accepted")
	}
	// A blocking result over differently sized relations is rejected.
	tiny, _ := workload(t, 30, 29)
	tinyRes, err := core.Link(core.Holder{Data: tiny}, core.Holder{Data: tiny.Clone()}, func() core.Config {
		c := core.DefaultConfig(adult.DefaultQIDs())
		c.AliceK, c.BobK = 4, 4
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.CheckBlocking(tinyRes.Block); err == nil {
		t.Error("mismatched blocking result accepted")
	}
}
