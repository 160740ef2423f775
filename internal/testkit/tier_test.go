package testkit

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"pprl/internal/core"
	"pprl/internal/journal"
	"pprl/internal/oracle"
)

// tierCfg returns the world's config with the Bloom triage tier enabled
// at the default CLK parameters and thresholds. The tier is applied here
// by the harness rather than drawn inside Generate, so every seeded
// world is byte-identical to its pre-tier self and old failure seeds
// keep reproducing.
func tierCfg(w *World) core.Config {
	cfg := w.Cfg
	cfg.Tier = core.TierBloom
	return cfg
}

// degenerateThresholds reports whether the world's rule contains a
// threshold ≥ 1 (ModeAlways attributes): those make nearly every pair a
// true match regardless of value distance, so the tier's Dice scores —
// which measure value similarity — are structurally uninformative and
// its false-non-match rate is unbounded by construction. Such worlds
// still run through the structural checks; only the accuracy
// aggregation skips them.
func degenerateThresholds(w *World) bool {
	for _, th := range w.Cfg.Thresholds {
		if th >= 1 {
			return true
		}
	}
	return false
}

// tierMissRateBound returns the bound on the aggregate share of tier
// labels that discarded a true match, overridable via
// PPRL_TIER_MAX_MISS_RATE. Measured over the 25 default worlds at the
// default threshold: 0.1944 (7,749 false non-matches of 39,862 labels in
// the 21 non-degenerate worlds). That is far above Adult's (0 of 9.3 M at
// paper scale, EXPERIMENTS.md) because the generated rules draw θ up to
// 0.30 over numeric attributes, where two records the rule matches can
// differ in every digit the CLK hashes — the worlds are the embedding's
// worst case, on purpose. The default leaves headroom over the measured
// rate; the point of the bound is to catch a change that breaks the
// encoder or the comparison wholesale (a rate heading for 0.5), not to
// certify a recall — what the tier costs is recall, and only recall.
func tierMissRateBound(t testing.TB) float64 {
	t.Helper()
	if s := os.Getenv("PPRL_TIER_MAX_MISS_RATE"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 || v > 1 {
			t.Fatalf("PPRL_TIER_MAX_MISS_RATE=%q is not a rate in [0,1]", s)
		}
		return v
	}
	return 0.25
}

// TestTierOracleProperties pins the tier's contract where it used to be
// waived: the tier may only say NonMatch, so under maximize-precision the
// referee's "precision is exactly 1.0" holds with the tier on, with no
// exception — at the default threshold and at an absurd one (0.99 discards
// nearly every Unknown pair: a bad threshold may cost recall, never
// precision) — on core.Link (oracle.CheckResult; the other shapes are
// held to it by TestConformance's tier rows, at both thresholds). It also
// checks
//
//  1. structural soundness in every world — no Certain blocking label is
//     ever re-labeled by the tier, no purchased SMC verdict is shadowed
//     by a heuristic label, and the tier counter agrees with full
//     enumeration (oracle.CheckTier);
//  2. accuracy — the aggregate share of tier labels that discarded a true
//     match, across the non-degenerate worlds at the default threshold,
//     stays under a written-down bound (PPRL_TIER_MAX_MISS_RATE).
func TestTierOracleProperties(t *testing.T) {
	base := baseSeed(t)
	n := worldCount(t)
	var agg oracle.TierReport
	labeledWorlds := 0
	for wi := 0; wi < n; wi++ {
		w := Generate(base + int64(wi))
		for _, low := range []float64{0, 0.99} {
			cfg := tierCfg(w)
			cfg.TierLow = low
			cfg.Strategy = core.MaximizePrecision
			res, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
			if err != nil {
				t.Fatal(repro(t, w, err))
			}
			o, err := oracle.New(w.Alice, w.Bob, res.QIDs(), res.Rule())
			if err != nil {
				t.Fatal(repro(t, w, err))
			}
			rep, err := o.CheckTier(res, -1) // structural invariants only
			if err != nil {
				t.Fatal(repro(t, w, err))
			}
			if _, err := o.CheckResult(res); err != nil {
				t.Fatal(repro(t, w, fmt.Errorf("core.Link, tier low %v: %w", low, err)))
			}

			if low != 0 || degenerateThresholds(w) {
				continue
			}
			agg.Labeled += rep.Labeled
			agg.FalseNonMatches += rep.FalseNonMatches
			if rep.Labeled > 0 {
				labeledWorlds++
			}
		}
	}
	if labeledWorlds == 0 {
		t.Fatal("no world produced tier labels; the contract was never exercised (non-vacuous run required)")
	}
	bound := tierMissRateBound(t)
	t.Logf("aggregate tier miss rate %.4f (%d false non-matches over %d labels in %d worlds), bound %.4f",
		agg.MissRate(), agg.FalseNonMatches, agg.Labeled, labeledWorlds, bound)
	if rate := agg.MissRate(); rate > bound {
		t.Fatalf("aggregate tier miss rate %.4f exceeds bound %.4f (%d false non-matches over %d labels in %d worlds)",
			rate, bound, agg.FalseNonMatches, agg.Labeled, labeledWorlds)
	}
}

// TestTierMonotoneRecallInAllowance asserts the three-tier pipeline
// keeps the two-tier guarantee: with the tier on and thresholds fixed,
// recall is monotone non-decreasing in the SMC allowance. Tier labels
// are allowance-independent, and a growing budget purchases a superset
// of exact verdicts from the uncertain band, so the reported match set
// only grows.
func TestTierMonotoneRecallInAllowance(t *testing.T) {
	base := baseSeed(t)
	checked := 0
	for wi := int64(0); wi < 8 && checked < 3; wi++ {
		w := Generate(base + wi)
		cfg := tierCfg(w)
		cfg.Strategy = core.MaximizePrecision
		res, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		if res.TierUncertainPairs == 0 {
			continue // nothing for the allowance to buy; sweep is vacuous
		}
		checked++
		o, err := oracle.New(w.Alice, w.Bob, res.QIDs(), res.Rule())
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		uncertain := res.TierUncertainPairs
		var sweep []*core.Result
		for _, a := range []int64{0, uncertain / 4, uncertain/2 + 1, uncertain + 1} {
			scfg := cfg
			scfg.Allowance = a
			scfg.AllowanceFraction = 0
			r, err := core.LinkPrepared(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, res.Block, scfg)
			if err != nil {
				t.Fatal(repro(t, w, err))
			}
			sweep = append(sweep, r)
		}
		if err := o.CheckMonotoneRecall(sweep, "allowance"); err != nil {
			t.Fatal(repro(t, w, err))
		}
	}
	if checked == 0 {
		t.Fatal("no generated world had an uncertain band; the tier monotonicity sweep never ran — adjust seeds")
	}
}

// TestTierCrossModeResume crashes a journaled run mid-SMC in one tier
// mode and resumes it in the other, both directions. The journal's
// verdict stream separates purchased records from tier records, so the
// resumed run must (a) re-spend none of the allowance the crashed run
// already spent, (b) preserve every purchased verdict bit for bit, and
// (c) never shadow a replayed verdict with a fresh tier label.
func TestTierCrossModeResume(t *testing.T) {
	seed := baseSeed(t)
	for wi := int64(0); ; wi++ {
		if wi == 10 {
			t.Fatal("no generated world produced ≥ 2 purchases in both tier modes; cross-mode resume never checked — adjust seeds")
		}
		w := Generate(seed + wi)
		modeCfg := func(mode core.TierMode) core.Config {
			cfg := w.Cfg
			cfg.Tier = mode
			return cfg
		}
		// Both directions crash mid-purchase, so both first modes need
		// enough SMC traffic to split.
		offBase, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, modeCfg(core.TierOff))
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		onBase, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, modeCfg(core.TierBloom))
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		if offBase.Invocations < 2 || onBase.Invocations < 2 {
			continue
		}

		for _, dir := range []struct {
			name          string
			first, second core.TierMode
			firstInv      int64
		}{
			{"off-then-bloom", core.TierOff, core.TierBloom, offBase.Invocations},
			{"bloom-then-off", core.TierBloom, core.TierOff, onBase.Invocations},
		} {
			kill := dir.firstInv / 2
			path := filepath.Join(t.TempDir(), "tier-cross.wal")

			wr, err := journal.Create(path, journal.Options{SyncEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			cfg := modeCfg(dir.first)
			cfg.Journal = &CrashSink{W: wr, Remaining: int(kill)}
			_, err = core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
			if !errors.Is(err, ErrCrash) {
				t.Fatalf("%s: crashed run returned %v, want ErrCrash", dir.name, err)
			}
			if err := wr.Close(); err != nil {
				t.Fatal(err)
			}

			// The purchased verdicts the crashed run journaled; the resumed
			// run must preserve every one of them exactly.
			recovered, err := journal.Replay(path)
			if err != nil {
				t.Fatalf("%s: replay: %v", dir.name, err)
			}
			if got := int64(len(recovered.Verdicts)); got != kill {
				t.Fatalf("%s: journal holds %d purchased verdicts, want %d", dir.name, got, kill)
			}

			rw, err := journal.Resume(path, journal.Options{})
			if err != nil {
				t.Fatalf("%s: resume: %v", dir.name, err)
			}
			cfg2 := modeCfg(dir.second)
			cfg2.Journal = rw
			res, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg2)
			if err != nil {
				t.Fatalf("%s: resumed run: %v", dir.name, err)
			}
			if err := rw.Close(); err != nil {
				t.Fatal(err)
			}

			if res.Resume.ResumedPairs != kill || res.Resume.ReplayedAllowance != kill {
				t.Fatalf("%s: resume stats %+v, want %d replayed", dir.name, res.Resume, kill)
			}
			if res.Invocations+res.Resume.ReplayedAllowance > res.Allowance {
				t.Fatalf("%s: allowance re-spent: %d live + %d replayed > %d",
					dir.name, res.Invocations, res.Resume.ReplayedAllowance, res.Allowance)
			}
			for _, v := range recovered.Verdicts {
				got, ok := res.SMCLabel(int(v.I), int(v.J))
				if !ok {
					t.Fatal(repro(t, w, fmt.Errorf("%s: purchased verdict (%d,%d) lost on resume", dir.name, v.I, v.J)))
				}
				if got != v.Matched {
					t.Fatal(repro(t, w, fmt.Errorf("%s: purchased verdict (%d,%d) flipped from %v to %v",
						dir.name, v.I, v.J, v.Matched, got)))
				}
				if res.TierLabeled(int(v.I), int(v.J)) {
					t.Fatal(repro(t, w, fmt.Errorf("%s: replayed verdict (%d,%d) shadowed by a tier label", dir.name, v.I, v.J)))
				}
			}
			if dir.second == core.TierBloom {
				// The resumed result must also satisfy the tier's structural
				// invariants against the oracle.
				o, err := oracle.New(w.Alice, w.Bob, res.QIDs(), res.Rule())
				if err != nil {
					t.Fatal(repro(t, w, err))
				}
				if _, err := o.CheckTier(res, -1); err != nil {
					t.Fatal(repro(t, w, err))
				}
			}
		}
		return
	}
}

// TestTierBudgetIndependence: tier labels are free, so a starved
// allowance must not truncate the tier's labeling — on core.Link, where
// the tier runs, its counters are the same at an allowance of 3 pairs as
// at one that buys every uncertain pair.
func TestTierBudgetIndependence(t *testing.T) {
	base := baseSeed(t)
	for wi := int64(0); wi < 8; wi++ {
		w := Generate(base + wi)
		cfg := tierCfg(w)
		cfg.Strategy = core.MaximizePrecision
		cfg.Allowance, cfg.AllowanceFraction = 3, 0
		starved, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		cfg.Allowance = starved.TierUncertainPairs + 1
		full, err := core.LinkPrepared(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, starved.Block, cfg)
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		if starved.Invocations > 3 {
			t.Fatal(repro(t, w, fmt.Errorf("budget exceeded: %d invocations", starved.Invocations)))
		}
		if s, f := [2]int64{starved.TierNonMatchedPairs(), starved.TierUncertainPairs}, [2]int64{full.TierNonMatchedPairs(), full.TierUncertainPairs}; s != f {
			t.Fatal(repro(t, w, fmt.Errorf("tier labels depend on the allowance: starved %v, full %v", s, f)))
		}
	}
}
