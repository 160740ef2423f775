package core

import (
	"context"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/anonymize"
	"pprl/internal/dpblock"
	"pprl/internal/journal"
)

// dpCfg returns a DP-blocking config with a generous ε, so the noise is
// mostly padding and the tests see a non-trivial number of live
// purchases inside a small allowance.
func dpCfg() Config {
	cfg := DefaultConfig(adult.DefaultQIDs())
	cfg.Epsilon = 8
	cfg.DPSeed = 7
	cfg.Allowance = 3000
	return cfg
}

func TestDPLinkEndToEnd(t *testing.T) {
	alice, bob := workload(t, 600, 42)
	res, err := Link(Holder{Data: alice}, Holder{Data: bob}, dpCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.DP == nil {
		t.Fatal("DP run carries no DPStats")
	}
	if res.DP.TotalEpsilon != 16 || res.DP.AliceEpsilon != 8 || res.DP.BobEpsilon != 8 {
		t.Errorf("epsilon accounting = %+v, want 8 + 8 = 16", res.DP)
	}
	if res.DP.Delta != dpblock.DefaultDelta || res.DP.Level != dpblock.DefaultLevel {
		t.Errorf("defaults not resolved: delta=%v level=%d", res.DP.Delta, res.DP.Level)
	}
	if res.DP.AliceBins != len(res.Block.R.Classes) || res.DP.BobBins != len(res.Block.S.Classes) {
		t.Errorf("bin counts %d/%d disagree with the views (%d/%d)",
			res.DP.AliceBins, res.DP.BobBins, len(res.Block.R.Classes), len(res.Block.S.Classes))
	}
	// DP blocking never labels Match: only exact layers have Match
	// authority, so precision stays structurally 1.0.
	if res.Block.MatchedPairs != 0 {
		t.Errorf("DP blocking labeled %d pairs Match", res.Block.MatchedPairs)
	}
	tr := truth(t, alice, bob, res)
	if conf := res.Evaluate(tr); conf.Precision() != 1 {
		t.Errorf("precision = %v, want exactly 1 under maximize-precision", conf.Precision())
	}
	// A dummy is a walked pair: the allowance bounds every purchase,
	// dummies included, and the dummy part of them never exceeds the
	// padding of the candidate bins.
	if res.Invocations > res.Allowance {
		t.Errorf("bought %d over allowance %d", res.Invocations, res.Allowance)
	}
	if res.DP.DummySpent > res.Invocations || res.DP.DummySpent > res.DP.DummyPairs {
		t.Errorf("%d of %d purchases touched a dummy, and %d dummy pairs exist", res.DP.DummySpent, res.Invocations, res.DP.DummyPairs)
	}
	if res.Invocations == res.DP.DummySpent {
		t.Error("workload bought no real comparisons; tests need a live budget")
	}
	if !strings.Contains(res.Summary(), "dp-eps=16") {
		t.Errorf("summary lacks DP accounting: %s", res.Summary())
	}
}

// TestDPCostShrinksWithEpsilon is the bench's key coupling at unit-test
// scale: with the seed fixed, a larger ε scales every Laplace draw and the
// truncation shift down, so noised counts — and the dummy pairs of the
// candidate bins — are pointwise no larger. An allowance that buys every
// candidate buys the same real pairs under both and finds the same
// matches; what the padding costs is the dummies bought beside them, all of
// DummyPairs.
func TestDPCostShrinksWithEpsilon(t *testing.T) {
	alice, bob := workload(t, 600, 43)
	run := func(eps float64) *Result {
		cfg := dpCfg()
		cfg.Epsilon = eps
		cfg.Allowance = 1 << 40
		res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.DP.DummySpent != res.DP.DummyPairs {
			t.Errorf("ε=%v: an unbounded allowance bought %d dummy pairs of %d", eps, res.DP.DummySpent, res.DP.DummyPairs)
		}
		return res
	}
	tight, loose := run(0.5), run(8)
	if loose.DP.DummyPairs >= tight.DP.DummyPairs {
		t.Errorf("padding cost: ε=8 has %d dummy pairs, ε=0.5 has %d; want strictly fewer",
			loose.DP.DummyPairs, tight.DP.DummyPairs)
	}
	if lr, tr := loose.Invocations-loose.DP.DummySpent, tight.Invocations-tight.DP.DummySpent; lr != tr || lr != tight.Block.UnknownPairs {
		t.Errorf("real purchases: ε=8 %d, ε=0.5 %d, candidate pairs %d; want all of them under both", lr, tr, tight.Block.UnknownPairs)
	}
	if loose.MatchedPairCount() != tight.MatchedPairCount() || loose.MatchedPairCount() == 0 {
		t.Errorf("ε=8 matched %d, ε=0.5 matched %d; every candidate bought, the noise cannot move a match",
			loose.MatchedPairCount(), tight.MatchedPairCount())
	}
}

func TestDPConfigValidation(t *testing.T) {
	alice, bob := workload(t, 60, 5)
	link := func(mutate func(*Config)) error {
		cfg := dpCfg()
		mutate(&cfg)
		_, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
		return err
	}
	if err := link(func(c *Config) { c.Epsilon = -1 }); err == nil {
		t.Error("negative Epsilon accepted")
	}
	if err := link(func(c *Config) { c.Epsilon = 0; c.DPDelta = 1e-6 }); err == nil ||
		!strings.Contains(err.Error(), "Epsilon") {
		t.Errorf("DPDelta without Epsilon: err = %v", err)
	}
	if err := link(func(c *Config) { c.DPDelta = 0.7 }); err == nil {
		t.Error("out-of-range DPDelta accepted")
	}
	if err := link(func(c *Config) { c.AliceAnonymizer = anonymize.NewDataFly() }); err == nil ||
		!strings.Contains(err.Error(), "dp binner") {
		t.Errorf("Epsilon with a k-anonymizer: err = %v", err)
	}
	// A classifier that accepts every pair cannot hide padding: refused
	// before anything is anonymized or journaled.
	begun := &beginCount{}
	if err := link(func(c *Config) {
		c.QIDs = []string{adult.AttrWorkclass, adult.AttrRace, adult.AttrSex}
		c.Thresholds = []float64{1, 1, 1}
		c.Journal = begun
	}); err == nil || !strings.Contains(err.Error(), "padding cannot be hidden") || begun.n != 0 {
		t.Errorf("all-ModeAlways classifier under DP: err = %v, journal begun %d times", err, begun.n)
	}
}

// beginCount is a journal that counts Begin calls and records nothing.
type beginCount struct{ n int }

func (b *beginCount) Begin(journal.Manifest) ([]journal.Verdict, error) { b.n++; return nil, nil }
func (*beginCount) Record(int, int, bool) error                         { return nil }
func (*beginCount) RecordTier(int, int, bool) error                     { return nil }
func (*beginCount) Sync() error                                         { return nil }

// TestDPLinkPrepared sweeps allowances over one prepared DP blocking
// result, and checks resolve refuses a block whose DP release disagrees
// with the config.
func TestDPLinkPrepared(t *testing.T) {
	alice, bob := workload(t, 600, 44)
	base, err := Link(Holder{Data: alice}, Holder{Data: bob}, dpCfg())
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for _, allowance := range []int64{100, 1000, 3000} {
		cfg := dpCfg()
		cfg.Allowance = allowance
		res, err := LinkPrepared(Holder{Data: alice}, Holder{Data: bob}, base.Block, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.MatchedPairCount(); got < prev {
			t.Errorf("allowance %d matched %d, less than the smaller allowance's %d", allowance, got, prev)
		} else {
			prev = got
		}
	}
	// ε mismatch between config and the prepared block must refuse.
	cfg := dpCfg()
	cfg.Epsilon = 2
	if _, err := LinkPrepared(Holder{Data: alice}, Holder{Data: bob}, base.Block, cfg); err == nil ||
		!strings.Contains(err.Error(), "disagree") {
		t.Errorf("ε mismatch: err = %v", err)
	}
	// A DP block under a non-DP config (and vice versa) must refuse.
	if _, err := LinkPrepared(Holder{Data: alice}, Holder{Data: bob}, base.Block, journalCfg()); err == nil {
		t.Error("DP block accepted under a k-anonymous config")
	}
	plain, err := Link(Holder{Data: alice}, Holder{Data: bob}, journalCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LinkPrepared(Holder{Data: alice}, Holder{Data: bob}, plain.Block, dpCfg()); err == nil {
		t.Error("k-anonymous block accepted under a DP config")
	}
}

// TestDPInterruptResumesExactly: a DP run interrupted mid-budget resumes
// into the identical labeling with identical spend — the journal holds
// handle pairs, dummies among them, so the stitched accounting (dummy bill
// included) matches an uninterrupted run's to the pair.
func TestDPInterruptResumesExactly(t *testing.T) {
	alice, bob := workload(t, 600, 45)
	path := filepath.Join(t.TempDir(), "dp.wal")

	cfgBase := dpCfg()
	cfgBase.SMCWorkers = 1
	base, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfgBase)
	if err != nil {
		t.Fatal(err)
	}
	if base.Invocations < 600 {
		t.Skipf("workload bought only %d pairs; need several chunks to interrupt mid-run", base.Invocations)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := journal.Create(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgBase
	cfg.Journal = &cancelAfter{Sink: w, n: 100, cancel: cancel}
	cfg.Context = ctx
	_, err = Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rw, err := journal.Resume(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfgBase
	cfg2.Journal = rw
	res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	sameLabeling(t, base, res, alice.Len(), bob.Len())
	if res.Resume.ResumedPairs == 0 {
		t.Fatal("resume replayed nothing")
	}
	if res.Invocations+res.Resume.ReplayedAllowance != base.Invocations {
		t.Errorf("stitched purchases: %d live + %d replayed != %d uninterrupted",
			res.Invocations, res.Resume.ReplayedAllowance, base.Invocations)
	}
	if res.DP.DummySpent != base.DP.DummySpent {
		t.Errorf("stitched dummy spend %d != uninterrupted %d", res.DP.DummySpent, base.DP.DummySpent)
	}
}

// TestDPResumeRefusals: ε, δ, the noise seed and the binning level all
// enter the config digest, so a journal never resumes under silently
// changed DP parameters — and never across dp↔k-anonymous mode changes.
func TestDPResumeRefusals(t *testing.T) {
	alice, bob := workload(t, 300, 46)
	path := filepath.Join(t.TempDir(), "dp.wal")
	w, err := journal.Create(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := dpCfg()
	cfg.Journal = w
	if _, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	resumeWith := func(t *testing.T, cfg Config) error {
		t.Helper()
		rw, err := journal.Resume(path, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rw.Close()
		cfg.Journal = rw
		_, err = Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
		return err
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"changed epsilon", func(c *Config) { c.Epsilon = 2 }},
		{"changed delta", func(c *Config) { c.DPDelta = 1e-3 }},
		{"changed seed", func(c *Config) { c.DPSeed = 8 }},
		{"changed level", func(c *Config) { c.DPLevel = 1 }},
		{"dp to datafly", func(c *Config) {
			c.Epsilon, c.DPSeed = 0, 0
			c.AliceAnonymizer = anonymize.NewDataFly()
			c.BobAnonymizer = anonymize.NewDataFly()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := dpCfg()
			c.mutate(&cfg)
			err := resumeWith(t, cfg)
			if err == nil || !strings.Contains(err.Error(), "journal") {
				t.Errorf("err = %v, want descriptive journal refusal", err)
			}
		})
	}

	// The reverse crossing: a k-anonymous journal must not resume a dp
	// run either.
	plainPath := filepath.Join(t.TempDir(), "plain.wal")
	pw, err := journal.Create(plainPath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pcfg := journalCfg()
	pcfg.Journal = pw
	if _, err := Link(Holder{Data: alice}, Holder{Data: bob}, pcfg); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	rw, err := journal.Resume(plainPath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	dcfg := dpCfg()
	dcfg.Journal = rw
	if _, err := Link(Holder{Data: alice}, Holder{Data: bob}, dcfg); err == nil {
		t.Error("k-anonymous journal resumed a dp run")
	}
}

// TestDPLegacyJournalRefused: testdata/legacy_dp.hex is a DP journal the
// build before padded walks wrote (this file's dpCfg at allowance 40 over
// workload(300, 46)): its pairs are record pairs. Resumed now, where a DP
// journal holds handle pairs, its config digest lacks the field that
// says so, and the manifest check refuses it before any purchase — it is
// not replayed as pairs it does not describe.
func TestDPLegacyJournalRefused(t *testing.T) {
	alice, bob := workload(t, 300, 46)
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy_dp.hex"))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy_dp.wal")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	rw, err := journal.Resume(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if len(rw.Recovered().Verdicts) == 0 {
		t.Fatal("the fixture holds no purchase; it exercises nothing")
	}
	cfg := dpCfg()
	cfg.Allowance = 40
	cfg.Journal = rw
	if _, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg); err == nil || !strings.Contains(err.Error(), "config digest mismatch") {
		t.Errorf("resuming a record-pair DP journal: err = %v, want the config-digest refusal", err)
	}
	if n := rw.Recorded(); n != 0 {
		t.Errorf("the refused resume recorded %d purchases, want none", n)
	}
}
