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
	"pprl/internal/journal"
)

// journalCfg returns a small budgeted config so journals hold a
// non-trivial but fast number of verdicts.
func journalCfg() Config {
	cfg := DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 8, 8
	cfg.Allowance = 200
	return cfg
}

// sameLabeling asserts two results label every pair identically.
func sameLabeling(t *testing.T, a, b *Result, aliceLen, bobLen int) {
	t.Helper()
	for i := 0; i < aliceLen; i++ {
		for j := 0; j < bobLen; j++ {
			if a.PairMatched(i, j) != b.PairMatched(i, j) {
				t.Fatalf("pair (%d,%d): labelings diverge (%v vs %v)",
					i, j, a.PairMatched(i, j), b.PairMatched(i, j))
			}
		}
	}
}

// TestJournaledRunIsTransparent: journaling must not change a run's
// outcome, and the journal must hold exactly the comparisons performed.
func TestJournaledRunIsTransparent(t *testing.T) {
	alice, bob := workload(t, 300, 91)
	path := filepath.Join(t.TempDir(), "run.wal")

	base, err := Link(Holder{Data: alice}, Holder{Data: bob}, journalCfg())
	if err != nil {
		t.Fatal(err)
	}

	w, err := journal.Create(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := journalCfg()
	cfg.Journal = w
	res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sameLabeling(t, base, res, alice.Len(), bob.Len())
	if res.Resume.Resumed() {
		t.Errorf("fresh journaled run reports resume stats %v", res.Resume)
	}

	rec, err := journal.Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rec.Verdicts)) != res.Invocations {
		t.Errorf("journal holds %d verdicts, run performed %d comparisons", len(rec.Verdicts), res.Invocations)
	}
	if rec.Manifest.Allowance != res.Allowance || rec.Manifest.Heuristic != "minAvgFirst" {
		t.Errorf("manifest = %+v", rec.Manifest)
	}
}

// TestResumeNeverRespends: resuming a completed journal replays every
// verdict and performs zero live comparisons.
func TestResumeNeverRespends(t *testing.T) {
	alice, bob := workload(t, 300, 92)
	path := filepath.Join(t.TempDir(), "run.wal")

	w, err := journal.Create(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := journalCfg()
	cfg.Journal = w
	first, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if first.Invocations == 0 {
		t.Fatal("workload produced no SMC comparisons; test needs a live budget")
	}

	rw, err := journal.Resume(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := journalCfg()
	cfg2.Journal = rw
	second, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	if second.Invocations != 0 {
		t.Errorf("resume of a complete journal re-spent %d comparisons", second.Invocations)
	}
	if second.Resume.ResumedPairs != first.Invocations {
		t.Errorf("ResumedPairs = %d, journal held %d", second.Resume.ResumedPairs, first.Invocations)
	}
	if second.Resume.ReplayedAllowance != second.Resume.ResumedPairs {
		t.Errorf("ReplayedAllowance %d != ResumedPairs %d under the uniform cost model",
			second.Resume.ReplayedAllowance, second.Resume.ResumedPairs)
	}
	sameLabeling(t, first, second, alice.Len(), bob.Len())
}

// TestResumeRefusals: a journal must not resume a run whose parameters
// or inputs changed, and the error must say what changed.
func TestResumeRefusals(t *testing.T) {
	alice, bob := workload(t, 300, 93)
	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := journal.Create(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := journalCfg()
	cfg.Journal = w
	if _, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	resumeWith := func(t *testing.T, cfg Config, a, b Holder) error {
		t.Helper()
		rw, err := journal.Resume(path, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rw.Close()
		cfg.Journal = rw
		_, err = Link(a, b, cfg)
		return err
	}

	// Strategy changes the pair ordering but none of the manifest's
	// summary fields, so it must be caught by the config digest.
	t.Run("changed strategy", func(t *testing.T) {
		cfg := journalCfg()
		cfg.Strategy = MaximizeRecall
		err := resumeWith(t, cfg, Holder{Data: alice}, Holder{Data: bob})
		if err == nil || !strings.Contains(err.Error(), "config digest") {
			t.Errorf("err = %v, want config-digest refusal", err)
		}
	})
	t.Run("changed theta", func(t *testing.T) {
		cfg := journalCfg()
		cfg.Theta = 0.1
		err := resumeWith(t, cfg, Holder{Data: alice}, Holder{Data: bob})
		if err == nil || !strings.Contains(err.Error(), "journal") {
			t.Errorf("err = %v, want descriptive journal refusal", err)
		}
	})
	t.Run("changed k", func(t *testing.T) {
		cfg := journalCfg()
		cfg.AliceK = 16
		err := resumeWith(t, cfg, Holder{Data: alice}, Holder{Data: bob})
		if err == nil {
			t.Error("resume with changed k succeeded")
		}
	})
	t.Run("changed relation", func(t *testing.T) {
		a2, b2 := workload(t, 300, 555)
		err := resumeWith(t, journalCfg(), Holder{Data: a2}, Holder{Data: b2})
		if err == nil || !strings.Contains(err.Error(), "journal") {
			t.Errorf("err = %v, want refusal on changed inputs", err)
		}
	})
}

// cancelAfter wraps a journal sink and cancels a context once n verdict
// records have been appended, simulating an operator interrupt mid-run.
type cancelAfter struct {
	journal.Sink
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Record(i, j int, matched bool) error {
	if err := c.Sink.Record(i, j, matched); err != nil {
		return err
	}
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return nil
}

// interruptCfg sizes the run so the SMC loop crosses several chunk
// boundaries (the engine polls the context at chunk boundaries only;
// the chunk holds at least 256 jobs).
func interruptCfg() Config {
	cfg := journalCfg()
	cfg.Allowance = 2000
	cfg.SMCWorkers = 1
	return cfg
}

// TestInterruptCheckpointsAndResumes: a cancelled context stops the run
// with ErrInterrupted, and the journaled prefix resumes into a result
// identical to an uninterrupted run.
func TestInterruptCheckpointsAndResumes(t *testing.T) {
	alice, bob := workload(t, 300, 94)
	path := filepath.Join(t.TempDir(), "run.wal")

	base, err := Link(Holder{Data: alice}, Holder{Data: bob}, interruptCfg())
	if err != nil {
		t.Fatal(err)
	}
	if base.Invocations < 600 {
		t.Skipf("workload resolved only %d pairs; need several chunks to interrupt mid-run", base.Invocations)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := journal.Create(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := interruptCfg()
	cfg.Journal = &cancelAfter{Sink: w, n: 100, cancel: cancel}
	cfg.Context = ctx
	_, err = Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// testdata/dense_era.hex is this run's interrupted journal as the last
	// commit with a dense blocking engine wrote it (same workload, same
	// config): the journal never recorded the engine, so it must resume
	// under the index exactly like the journal written above.
	raw, err := os.ReadFile(filepath.Join("testdata", "dense_era.hex"))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatal(err)
	}
	// The same fixture predates schema-derived slot widths and run-major
	// result packing too, and neither is in the manifest: its second copy
	// resumes under the secure comparator, which buys the rest that way.
	denseEra := filepath.Join(t.TempDir(), "dense_era.wal")
	denseEraSecure := filepath.Join(t.TempDir(), "dense_era_secure.wal")
	for _, wal := range []string{denseEra, denseEraSecure} {
		if err := os.WriteFile(wal, fixture, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, wal := range []string{path, denseEra, denseEraSecure} {
		rec, err := journal.Replay(wal)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Verdicts) == 0 || int64(len(rec.Verdicts)) >= base.Invocations {
			t.Fatalf("%s: interrupt checkpointed %d verdicts of %d; wanted a strict prefix", wal, len(rec.Verdicts), base.Invocations)
		}

		rw, err := journal.Resume(wal, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg2 := interruptCfg()
		cfg2.Journal = rw
		if wal == denseEraSecure {
			cfg2.Comparator = SecureComparatorFactory(256)
		}
		res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg2)
		if err != nil {
			t.Fatalf("%s: %v", wal, err)
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		sameLabeling(t, base, res, alice.Len(), bob.Len())
		if res.Resume.ResumedPairs != int64(len(rec.Verdicts)) {
			t.Errorf("%s: resumed %d pairs, journal held %d", wal, res.Resume.ResumedPairs, len(rec.Verdicts))
		}
		if res.Invocations+res.Resume.ReplayedAllowance != base.Invocations {
			t.Errorf("%s: stitched accounting: %d live + %d replayed != %d uninterrupted",
				wal, res.Invocations, res.Resume.ReplayedAllowance, base.Invocations)
		}
	}
}
