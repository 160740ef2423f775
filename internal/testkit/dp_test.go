package testkit

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/dpblock"
	"pprl/internal/journal"
	"pprl/internal/oracle"
)

// dpEpsilons is the per-holder budget rotation for the DP harness:
// small enough to exercise heavy padding, large enough to buy real
// comparisons.
var dpEpsilons = []float64{0.5, 2, 8}

// dpCfg returns the world's config switched to differentially private
// blocking. The anonymizers are cleared (the engine installs the
// deterministic binner), the strategy is pinned to maximize-precision so
// the zero-false-positive invariant applies, and ε rotates with the
// world index so every bound sees both padding-dominated and
// budget-dominated regimes.
func dpCfg(w *World, wi int) core.Config {
	cfg := w.Cfg
	cfg.AliceAnonymizer, cfg.BobAnonymizer = nil, nil
	cfg.Epsilon = dpEpsilons[wi%len(dpEpsilons)]
	cfg.DPSeed = w.Seed
	cfg.Strategy = core.MaximizePrecision
	return cfg
}

// unpaddable reports whether the world's classifier accepts every pair —
// θ ≥ 1 on all-categorical QIDs — so DP padding could not be hidden in it:
// every shape refuses such a world under DP, and the DP harnesses skip it,
// the way the tier harness sets θ ≥ 1 worlds aside.
func unpaddable(w *World) bool {
	if w.Cfg.Thresholds == nil {
		return false // the uniform θ stays below 0.30
	}
	for a, th := range w.Cfg.Thresholds {
		if th < 1 || w.Alice.Schema().Attr(a).Kind != dataset.Categorical {
			return false
		}
	}
	return true
}

// dpMissRateBound returns the accuracy bound for the aggregate DP
// missed-match rate, overridable via PPRL_DP_MAX_MISS_RATE. Bin
// intersection at a fixed depth prunes true matches whose values sit in
// different bins, so some loss is structural; the bound catches
// regressions that break the binning wholesale, not a particular
// recall.
func dpMissRateBound(t testing.TB) float64 {
	t.Helper()
	if s := os.Getenv("PPRL_DP_MAX_MISS_RATE"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 || v > 1 {
			t.Fatalf("PPRL_DP_MAX_MISS_RATE=%q is not a rate in [0,1]", s)
		}
		return v
	}
	return 0.60
}

// TestDPOracleProperties runs the generated worlds under differentially
// private blocking and checks the DP contract against the plaintext
// oracle:
//
//  1. structural soundness in every world — both releases padded (never
//     understating), no Match label from blocking, and every pruned
//     true match counted (oracle.CheckDPBlocking);
//  2. the exact layers stay exact — under maximize-precision the run
//     reports zero false positives; DP noise may lose matches but can
//     never fabricate one;
//  3. the composed budget is ε_alice + ε_bob, the purchases (dummy pairs
//     among them) never exceed the allowance, and the dummy part never
//     exceeds the padding of the candidate bins;
//  4. accuracy — the aggregate missed-match rate across worlds stays
//     under a configurable bound (PPRL_DP_MAX_MISS_RATE).
func TestDPOracleProperties(t *testing.T) {
	base := baseSeed(t)
	n := worldCount(t)
	var agg oracle.DPBlockReport
	for wi := 0; wi < n; wi++ {
		w := Generate(base + int64(wi))
		if unpaddable(w) {
			continue
		}
		cfg := dpCfg(w, wi)
		res, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		o, err := oracle.New(w.Alice, w.Bob, res.QIDs(), res.Rule())
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		rep, err := o.CheckDPBlocking(res.Block, -1) // structural invariants only
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		if _, err := o.CheckResult(res); err != nil {
			t.Fatal(repro(t, w, err))
		}
		if res.DP == nil {
			t.Fatal(repro(t, w, errors.New("DP run carries no accounting")))
		}
		if got, want := res.DP.TotalEpsilon, 2*cfg.Epsilon; got != want {
			t.Fatal(repro(t, w, fmt.Errorf("composed epsilon %v, want %v", got, want)))
		}
		if res.Invocations > res.Allowance || res.DP.DummySpent > res.Invocations || res.DP.DummySpent > res.DP.DummyPairs {
			t.Fatal(repro(t, w, fmt.Errorf("bought %d (%d of them dummy pairs, of %d) on allowance %d",
				res.Invocations, res.DP.DummySpent, res.DP.DummyPairs, res.Allowance)))
		}
		agg.TrueMatches += rep.TrueMatches
		agg.Missed += rep.Missed
		agg.CandidatePairs += rep.CandidatePairs
	}
	if agg.TrueMatches == 0 {
		t.Fatal("no world produced a true match; the miss-rate bound never fired (non-vacuous run required)")
	}
	bound := dpMissRateBound(t)
	if rate := agg.MissRate(); rate > bound {
		t.Fatalf("aggregate DP missed-match rate %.4f exceeds bound %.4f (%d of %d true matches pruned across %d worlds)",
			rate, bound, agg.Missed, agg.TrueMatches, n)
	} else {
		t.Logf("aggregate DP missed-match rate %.4f (%d of %d true matches pruned, %d candidate pairs)",
			rate, agg.Missed, agg.TrueMatches, agg.CandidatePairs)
	}
}

// TestDPCrossModeResumeRefused crashes a journaled run in one blocking
// mode and tries to resume it in the other, both directions: a dp
// journal must refuse a k-anonymous resume and vice versa — silently
// changing ε (or dropping DP entirely) would invalidate the accounting
// the journal's config digest recorded.
func TestDPCrossModeResumeRefused(t *testing.T) {
	seed := baseSeed(t)
	for wi := 0; ; wi++ {
		if wi == 12 {
			t.Fatal("no generated world produced ≥ 2 purchases in both modes; cross-mode refusal never checked — adjust seeds")
		}
		w := Generate(seed + int64(wi))
		if unpaddable(w) {
			continue
		}
		dcfg := dpCfg(w, wi)
		kcfg := w.Cfg
		kcfg.Strategy = core.MaximizePrecision
		dBase, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, dcfg)
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		kBase, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, kcfg)
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		if dBase.Invocations < 2 || kBase.Invocations < 2 {
			continue
		}

		for _, dir := range []struct {
			name          string
			first, second core.Config
			firstInv      int64
		}{
			{"dp-then-k", dcfg, kcfg, dBase.Invocations},
			{"k-then-dp", kcfg, dcfg, kBase.Invocations},
		} {
			path := filepath.Join(t.TempDir(), "dp-cross.wal")
			wr, err := journal.Create(path, journal.Options{SyncEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			cfg := dir.first
			cfg.Journal = &CrashSink{W: wr, Remaining: int(dir.firstInv / 2)}
			_, err = core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
			if !errors.Is(err, ErrCrash) {
				t.Fatalf("%s: crashed run returned %v, want ErrCrash", dir.name, err)
			}
			if err := wr.Close(); err != nil {
				t.Fatal(err)
			}
			rw, err := journal.Resume(path, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg2 := dir.second
			cfg2.Journal = rw
			_, err = core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg2)
			rw.Close()
			if err == nil {
				t.Fatal(repro(t, w, fmt.Errorf("%s: cross-mode resume accepted; the journal digest must refuse it", dir.name)))
			}
		}
		return
	}
}

// TestTierRefusedUnderDP: the triage tier and a DP release refuse each
// other by one sentinel, before anything is published: a dummy handle's
// CLK would tell the matcher it is padding (SECURITY.md, "Noised bins").
// core.Link refuses the config; the live engine has no DP mode to refuse
// it in, and a session has no tier.
func TestTierRefusedUnderDP(t *testing.T) {
	w := Generate(baseSeed(t))
	cfg := dpCfg(w, 2)
	cfg.Tier = core.TierBloom
	if _, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg); !errors.Is(err, dpblock.ErrTierUnderDP) {
		t.Errorf("core.Link: err = %v, want ErrTierUnderDP", err)
	}
}
