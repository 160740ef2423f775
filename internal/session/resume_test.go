package session

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/journal"
)

func matchKeys(res *QueryResult, bobLen int) []int64 {
	keys := make([]int64, len(res.Matches))
	for i, p := range res.Matches {
		keys[i] = p.Key(bobLen)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return keys
}

func sameMatches(t *testing.T, a, b *QueryResult, bobLen int) {
	t.Helper()
	ka, kb := matchKeys(a, bobLen), matchKeys(b, bobLen)
	if len(ka) != len(kb) {
		t.Fatalf("match sets differ in size: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("match sets diverge at %d", i)
		}
	}
}

// cancelAfterSink cancels a context once n verdict records have been
// appended, simulating an operator interrupt mid-session.
type cancelAfterSink struct {
	journal.Sink
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfterSink) Record(i, j int, matched bool) error {
	if err := c.Sink.Record(i, j, matched); err != nil {
		return err
	}
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return nil
}

// TestSessionJournalResume: a journal must not resume a session whose
// classifier, budget or views changed, and the refusal must say what
// changed. (That a journal is transparent and a complete one resumes
// without buying anything is TestConformance's journal column.)
func TestSessionJournalResume(t *testing.T) {
	aliceData, bobData := sessionWorkload(t, 90)
	baseCfg := QueryConfig{
		Schema:    aliceData.Schema(),
		QIDs:      adult.DefaultQIDs(),
		Theta:     0.05,
		Allowance: 40,
		KeyBits:   testKeyBits,
	}
	path := filepath.Join(t.TempDir(), "session.wal")
	w, err := journal.Create(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg
	cfg.Journal = w
	if _, err := runLocalSession(t, aliceData, bobData, cfg, HolderConfig{K: 8}, HolderConfig{K: 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Refusals: a changed classifier or budget must be refused with a
	// descriptive error, never silently restarted.
	t.Run("changed allowance", func(t *testing.T) {
		rw, err := journal.Open(path, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rw.Close()
		cfg := baseCfg
		cfg.Allowance = 80
		cfg.Journal = rw
		_, err = runLocalSession(t, aliceData, bobData, cfg, HolderConfig{K: 8}, HolderConfig{K: 8})
		if err == nil || !strings.Contains(err.Error(), "allowance changed") {
			t.Errorf("err = %v, want allowance refusal", err)
		}
	})
	t.Run("changed views", func(t *testing.T) {
		rw, err := journal.Open(path, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rw.Close()
		cfg := baseCfg
		cfg.Journal = rw
		// Same relations, different anonymity requirement → different
		// published views. Depending on how the blocking shifts this is
		// caught by the summary fields or the inputs digest; either way it
		// must be a descriptive journal refusal.
		_, err = runLocalSession(t, aliceData, bobData, cfg, HolderConfig{K: 4}, HolderConfig{K: 8})
		if err == nil || !strings.Contains(err.Error(), "journal") || !strings.Contains(err.Error(), "changed") {
			t.Errorf("err = %v, want descriptive journal refusal", err)
		}
	})
}

func TestSessionInterruptAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("interrupt test runs several hundred Paillier comparisons")
	}
	aliceData, bobData := sessionWorkload(t, 120)
	path := filepath.Join(t.TempDir(), "session.wal")
	baseCfg := QueryConfig{
		Schema:    aliceData.Schema(),
		QIDs:      adult.DefaultQIDs(),
		Theta:     0.05,
		Allowance: 600,
		KeyBits:   testKeyBits,
	}

	base, err := runLocalSession(t, aliceData, bobData, baseCfg, HolderConfig{K: 8}, HolderConfig{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if base.Invocations <= 256 {
		t.Skipf("workload resolved only %d pairs; need more than one batch to interrupt", base.Invocations)
	}

	// Interrupt mid-run: cancel once 100 verdicts are journaled. The
	// querying party checkpoints at the next batch boundary and shuts the
	// holders down; their errors are irrelevant here.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := journal.Create(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg
	cfg.Journal = &cancelAfterSink{Sink: w, n: 100, cancel: cancel}
	cfg.Context = ctx
	_, err = runLocalSession(t, aliceData, bobData, cfg, HolderConfig{K: 8}, HolderConfig{K: 8})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted session returned %v, want ErrInterrupted", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash tearing the final write: append half a frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x0a, 0x00, 0x00, 0x00, 0x02, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, err := journal.Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Verdicts) == 0 || int64(len(rec.Verdicts)) >= base.Invocations {
		t.Fatalf("interrupt checkpointed %d of %d verdicts; wanted a strict prefix", len(rec.Verdicts), base.Invocations)
	}
	if rec.TornBytes == 0 {
		t.Fatal("torn tail not detected")
	}

	// Resume against fresh holders: the stitched session must equal the
	// uninterrupted baseline, spending only the un-purchased remainder.
	rw, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := baseCfg
	cfg2.Journal = rw
	res, err := runLocalSession(t, aliceData, bobData, cfg2, HolderConfig{K: 8}, HolderConfig{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	sameMatches(t, base, res, bobData.Len())
	if res.Resume.ResumedPairs != int64(len(rec.Verdicts)) {
		t.Errorf("resumed %d pairs, journal held %d", res.Resume.ResumedPairs, len(rec.Verdicts))
	}
	if res.Invocations+res.Resume.ReplayedAllowance != base.Invocations {
		t.Errorf("stitched accounting: %d live + %d replayed != %d uninterrupted",
			res.Invocations, res.Resume.ReplayedAllowance, base.Invocations)
	}
}

// TestSessionResumesTierJournal: a journal written by a session that still
// had a triage tier holds tier records beside its purchases. The manifest
// never hashed the tier, so the journal resumes; its purchases replay and
// its tier records do not: the pairs they labeled are bought live, and
// the stitched run equals an unjournaled one.
func TestSessionResumesTierJournal(t *testing.T) {
	aliceData, bobData := sessionWorkload(t, 90)
	cfg := QueryConfig{
		Schema:    aliceData.Schema(),
		QIDs:      adult.DefaultQIDs(),
		Theta:     0.05,
		Allowance: 40,
		KeyBits:   testKeyBits,
	}
	dir := t.TempDir()
	full, err := journal.Create(filepath.Join(dir, "full.wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseCfg := cfg
	baseCfg.Journal = full
	base, err := runLocalSession(t, aliceData, bobData, baseCfg, HolderConfig{K: 8}, HolderConfig{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	bought, err := journal.Replay(filepath.Join(dir, "full.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bought.Verdicts) < 4 {
		t.Fatalf("the session bought %d pairs; the test needs a few", len(bought.Verdicts))
	}

	// The first half of the purchases as purchases, the rest as the tier's
	// free NonMatch labels, interleaved as a tier-on walk records them.
	path := filepath.Join(dir, "tier.wal")
	w, err := journal.Create(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin(bought.Manifest); err != nil {
		t.Fatal(err)
	}
	half := len(bought.Verdicts) / 2
	for x, v := range bought.Verdicts {
		if x < half {
			err = w.Record(int(v.I), int(v.J), v.Matched)
		} else {
			err = w.RecordTier(int(v.I), int(v.J), false)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rw, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = rw
	res, err := runLocalSession(t, aliceData, bobData, cfg, HolderConfig{K: 8}, HolderConfig{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Resume.ResumedPairs != int64(half) || res.Resume.ReplayedAllowance != int64(half) {
		t.Errorf("replayed %d pairs worth %d units; the journal held %d purchases", res.Resume.ResumedPairs, res.Resume.ReplayedAllowance, half)
	}
	if res.Invocations+res.Resume.ReplayedAllowance > res.Allowance {
		t.Errorf("%d live + %d replayed exceed the allowance %d", res.Invocations, res.Resume.ReplayedAllowance, res.Allowance)
	}
	if res.Invocations+res.Resume.ReplayedAllowance != base.Invocations {
		t.Errorf("%d live + %d replayed, the unjournaled run bought %d", res.Invocations, res.Resume.ReplayedAllowance, base.Invocations)
	}
	sameMatches(t, base, res, bobData.Len())
}
