package testkit

import (
	"os"
	"strconv"
	"testing"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/core"
	"pprl/internal/distance"
	"pprl/internal/oracle"
	"pprl/internal/vgh"
)

// baseSeed returns the first world seed: PPRL_ORACLE_SEED when set (to
// reproduce a logged failure), a fixed default otherwise so CI runs are
// deterministic.
func baseSeed(t testing.TB) int64 {
	t.Helper()
	if s := os.Getenv("PPRL_ORACLE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PPRL_ORACLE_SEED=%q is not an integer: %v", s, err)
		}
		return v
	}
	return 52600
}

// worldCount returns how many worlds the harness runs, overridable via
// PPRL_ORACLE_WORLDS for longer local soaks.
func worldCount(t testing.TB) int {
	t.Helper()
	if s := os.Getenv("PPRL_ORACLE_WORLDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("PPRL_ORACLE_WORLDS=%q is not a positive integer", s)
		}
		return v
	}
	return 25
}

// repro formats the failure banner every harness fatal carries: the
// reproducing seed plus the world's full parameter dump.
func repro(w *World, err error) string {
	return "world " + w.Describe() + ": " + err.Error() +
		"\nreproduce with: PPRL_ORACLE_SEED=" + strconv.FormatInt(w.Seed, 10) +
		" PPRL_ORACLE_WORLDS=1 go test ./internal/testkit -run TestGeneratedWorlds -v"
}

// TestGeneratedWorlds is the property harness: for every generated world
// it runs the full pipeline (anonymize → block → heuristic ordering →
// budgeted SMC → residual labeling) and checks the paper's invariants
// against the plaintext oracle:
//
//  1. every blocking label agrees with the exact rule and every slack
//     bound brackets the exact distance (zero blocking error);
//  2. under maximize-precision, precision is exactly 1.0;
//  3. recall is monotone non-decreasing in the SMC allowance (same
//     blocking result, growing budget);
//  4. recall is monotone non-increasing in k whenever the coarser
//     anonymized views nest over the finer ones (nesting is checked,
//     not assumed — greedy top-down paths may legally cross-cut).
func TestGeneratedWorlds(t *testing.T) {
	base := baseSeed(t)
	n := worldCount(t)
	nestedPairs := 0
	for wi := 0; wi < n; wi++ {
		w := Generate(base + int64(wi))
		res, o, err := w.Run()
		if err != nil {
			t.Fatal(repro(w, err))
		}
		if o.TrueMatchCount() == 0 {
			t.Fatalf("world %s: no true matches; the overlap construction is broken", w.Describe())
		}
		if err := o.CheckBlocking(res.Block); err != nil {
			t.Fatal(repro(w, err))
		}
		rep, err := o.CheckResult(res)
		if err != nil {
			t.Fatal(repro(w, err))
		}
		if w.Cfg.Strategy == core.MaximizePrecision && rep.Confusion.Precision() != 1 {
			t.Fatalf("world %s: precision %v under maximize-precision", w.Describe(), rep.Confusion.Precision())
		}

		checkAllowanceMonotone(t, w, res, o)
		// Probe k-monotonicity on a subset to keep the default run fast.
		if wi%3 == 0 {
			if nested := checkKMonotone(t, w, o); nested {
				nestedPairs++
			}
		}
	}
	if nestedPairs == 0 {
		t.Error("no world produced nested views across k; the k-monotonicity check never fired (non-vacuous run required)")
	}
}

// checkAllowanceMonotone reruns the residual pipeline over the world's
// cached blocking result with a growing absolute SMC budget and asserts
// recall never decreases. Maximize-precision is forced: it is the only
// strategy with a monotone-recall guarantee (maximize-recall is
// constantly 1, the classifier is heuristic).
func checkAllowanceMonotone(t *testing.T, w *World, res *core.Result, o *oracle.Oracle) {
	t.Helper()
	unknown := res.Block.UnknownPairs
	var sweep []*core.Result
	for _, a := range []int64{0, unknown / 4, unknown/2 + 1, unknown + 1} {
		cfg := w.Cfg
		cfg.Strategy = core.MaximizePrecision
		cfg.Allowance = a
		cfg.AllowanceFraction = 0
		r, err := core.LinkPrepared(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, res.Block, cfg)
		if err != nil {
			t.Fatal(repro(w, err))
		}
		sweep = append(sweep, r)
	}
	if err := o.CheckMonotoneRecall(sweep, "allowance"); err != nil {
		t.Fatal(repro(w, err))
	}
}

// checkKMonotone runs the world at its own k and at 2k with both holders
// on DataFly (the full-domain ladder, the family where coarser k yields
// pointwise-nested views) at zero SMC budget, verifies the views
// actually nest, and only then asserts recall did not grow with k. It
// reports whether the nesting precondition held.
func checkKMonotone(t *testing.T, w *World, o *oracle.Oracle) bool {
	t.Helper()
	run := func(k int) *core.Result {
		cfg := w.Cfg
		cfg.AliceK, cfg.BobK = k, k
		cfg.AliceAnonymizer = anonymize.NewDataFly()
		cfg.BobAnonymizer = anonymize.NewDataFly()
		cfg.Strategy = core.MaximizePrecision
		cfg.Allowance = 0
		cfg.AllowanceFraction = 0
		r, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
		if err != nil {
			t.Fatal(repro(w, err))
		}
		return r
	}
	k := w.Cfg.AliceK
	fine, coarse := run(k), run(2*k)
	if !oracle.ViewsNested(fine.Block.R, coarse.Block.R, w.Alice.Len()) ||
		!oracle.ViewsNested(fine.Block.S, coarse.Block.S, w.Bob.Len()) {
		return false // cross-cutting generalizations; monotonicity not implied
	}
	repFine, err := o.CheckResult(fine)
	if err != nil {
		t.Fatal(repro(w, err))
	}
	repCoarse, err := o.CheckResult(coarse)
	if err != nil {
		t.Fatal(repro(w, err))
	}
	if repCoarse.Confusion.Recall() > repFine.Confusion.Recall()+1e-12 {
		t.Fatalf("world %s: recall grew from %.6f (k=%d) to %.6f (k=%d) despite nested views",
			w.Describe(), repFine.Confusion.Recall(), k, repCoarse.Confusion.Recall(), 2*k)
	}
	return true
}

// mutantMetric breaks the slack contract the way ISSUE.md's canary
// prescribes: the supremum is computed as the infimum.
type mutantMetric struct{ distance.Metric }

func (m mutantMetric) Bounds(v, w vgh.Value) (inf, sup float64) {
	inf, _ = m.Metric.Bounds(v, w)
	return inf, inf
}

// TestHarnessCanaryBrokenSupremum proves the generated-world harness has
// teeth: re-blocking a world's views under a rule whose sds is broken
// must be rejected by the oracle. Without this canary a silently inert
// checker would pass every world forever.
func TestHarnessCanaryBrokenSupremum(t *testing.T) {
	base := baseSeed(t)
	caught := false
	for wi := int64(0); wi < 5 && !caught; wi++ {
		w := Generate(base + wi)
		res, o, err := w.Run()
		if err != nil {
			t.Fatal(repro(w, err))
		}
		rule := res.Rule()
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
		badBlock, err := blocking.Block(res.Block.R, res.Block.S, broken)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.CheckBlocking(badBlock); err != nil {
			caught = true
		}
	}
	if !caught {
		t.Fatal("oracle accepted blocking built on a broken supremum in 5 consecutive worlds")
	}
}
