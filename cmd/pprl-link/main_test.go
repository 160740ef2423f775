package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pprl"
	"pprl/internal/cliutil"
)

// writePair writes two small overlapping Adult CSVs.
func writePair(t *testing.T) (a, b string) { return writePairN(t, 120) }

// writePairN writes two overlapping Adult CSVs split from n records.
func writePairN(t *testing.T, n int) (a, b string) {
	t.Helper()
	schema := pprl.AdultSchema()
	full := pprl.GenerateAdult(schema, n, 9)
	da, db := pprl.SplitOverlap(full, rand.New(rand.NewSource(10)))
	dir := t.TempDir()
	write := func(d *pprl.Dataset, name string) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := d.WriteCSV(f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return write(da, "a.csv"), write(db, "b.csv")
}

// baseOpts are the defaults the tests vary from.
func baseOpts(a, b string) options {
	return options{
		aPath: a,
		bPath: b,
		CLI: cliutil.CLI{
			Params: cliutil.Params{
				Theta:     0.05,
				Heuristic: "minAvgFirst",
				Strategy:  "precision",
				QIDs:      pprl.DefaultAdultQIDs(),
			},
			K:                 8,
			AllowanceFraction: 0.01,
		},
	}
}

func TestRunLink(t *testing.T) {
	a, b := writePair(t)
	var buf bytes.Buffer
	opts := baseOpts(a, b)
	opts.AllowanceFraction = 1.0
	opts.eval = true
	opts.showPairs = true
	if err := run(&buf, opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "strategy=maximize-precision") {
		t.Errorf("summary missing: %q", out)
	}
	if !strings.Contains(out, "precision=1.0000") {
		t.Errorf("evaluation missing or imprecise: %q", out)
	}
	// -pairs emits matched entity pairs; with full allowance and shared
	// entities there must be some.
	pairLines := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Count(line, "\t") == 1 {
			pairLines++
		}
	}
	if pairLines == 0 {
		t.Error("expected matched pairs in output")
	}
}

// TestRunLinkJSON: -json emits one parseable document built from the
// stable marshalers, with evaluation and matches folded in.
func TestRunLinkJSON(t *testing.T) {
	a, b := writePair(t)
	var buf bytes.Buffer
	opts := baseOpts(a, b)
	opts.AllowanceFraction = 1.0
	opts.eval = true
	opts.showPairs = true
	opts.jsonOut = true
	if err := run(&buf, opts); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Result struct {
			TotalPairs   int64  `json:"total_pairs"`
			MatchedPairs int64  `json:"matched_pairs"`
			Strategy     string `json:"strategy"`
		} `json:"result"`
		Evaluation *struct {
			Precision float64 `json:"precision"`
		} `json:"evaluation"`
		TruthPairs *int     `json:"truth_pairs"`
		Matches    [][2]int `json:"matches"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not one JSON document: %v\n%s", err, buf.String())
	}
	if doc.Result.TotalPairs == 0 || doc.Result.Strategy != "maximize-precision" {
		t.Errorf("result summary incomplete: %+v", doc.Result)
	}
	if doc.Evaluation == nil || doc.Evaluation.Precision != 1 {
		t.Errorf("evaluation missing or imprecise: %+v", doc.Evaluation)
	}
	if doc.TruthPairs == nil || *doc.TruthPairs == 0 {
		t.Error("truth_pairs missing")
	}
	if int64(len(doc.Matches)) != doc.Result.MatchedPairs {
		t.Errorf("matches has %d entries, result reports %d", len(doc.Matches), doc.Result.MatchedPairs)
	}
}

func TestRunLinkSecure(t *testing.T) {
	a, b := writePair(t)
	var buf bytes.Buffer
	// Tiny allowance keeps the number of real crypto ops low; 256-bit
	// keys keep the test fast.
	opts := baseOpts(a, b)
	opts.AllowanceFraction = 0.0005
	opts.Heuristic = "maxLast"
	opts.Strategy = "recall"
	opts.Secure = true
	opts.KeyBits = 256
	if err := run(&buf, opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "strategy=maximize-recall") {
		t.Errorf("output = %q", buf.String())
	}
}

// TestRunLinkJournalResume: running the same -journal command again
// resumes the finished run — every verdict replays, nothing is bought —
// and a run with changed flags is refused, not silently restarted.
func TestRunLinkJournalResume(t *testing.T) {
	a, b := writePair(t)
	wal := filepath.Join(t.TempDir(), "run.wal")

	// Journaled run.
	opts := baseOpts(a, b)
	opts.Journal = wal
	if err := run(&bytes.Buffer{}, opts); err != nil {
		t.Fatal(err)
	}
	// The same command replays it: zero live comparisons.
	var second bytes.Buffer
	if err := run(&second, opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "journal: resumed=") {
		t.Errorf("resumed run did not report resume stats: %q", second.String())
	}
	if !strings.Contains(second.String(), "smc=0 ") {
		t.Errorf("resume of a complete journal should spend no comparisons: %q", second.String())
	}
	opts.Theta = 0.2
	if err := run(&bytes.Buffer{}, opts); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Errorf("resume with changed theta: err = %v, want journal refusal", err)
	}
}

// TestRunLinkJournalManifestless: a journal holding only its header — what
// a run killed before its manifest became durable leaves — starts a fresh
// run under -journal; a file that is not a journal is refused and left as
// it was.
func TestRunLinkJournalManifestless(t *testing.T) {
	a, b := writePair(t)
	wal := filepath.Join(t.TempDir(), "run.wal")
	if err := os.WriteFile(wal, []byte("PPRLWAL\x00\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := baseOpts(a, b)
	opts.Journal = wal
	var out bytes.Buffer
	if err := run(&out, opts); err != nil {
		t.Fatalf("-journal over a header-only journal: %v", err)
	}
	if strings.Contains(out.String(), "journal: resumed=") {
		t.Errorf("a header-only journal resumed: %q", out.String())
	}
	if rec, err := pprl.ReplayJournal(wal); err != nil || rec.Manifest.Allowance == 0 {
		t.Errorf("the fresh run left no manifest: %v", err)
	}

	foreign := []byte("not a journal, and no run's either")
	if err := os.WriteFile(wal, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&bytes.Buffer{}, opts); err == nil {
		t.Error("-journal accepted a foreign file")
	}
	if got, err := os.ReadFile(wal); err != nil || !bytes.Equal(got, foreign) {
		t.Errorf("the foreign file was modified: %q, %v", got, err)
	}
}

func TestRunLinkErrors(t *testing.T) {
	a, b := writePair(t)
	bad := func(mutate func(*options)) error {
		opts := baseOpts(a, b)
		mutate(&opts)
		return run(nil, opts)
	}
	if err := bad(func(o *options) { o.aPath = "" }); err == nil {
		t.Error("missing -a should fail")
	}
	if err := bad(func(o *options) { o.Heuristic = "bogus" }); err == nil {
		t.Error("bad heuristic should fail")
	}
	if err := bad(func(o *options) { o.Strategy = "bogus" }); err == nil {
		t.Error("bad strategy should fail")
	}
	if err := bad(func(o *options) { o.Strategy = "classifier"; o.QIDs = []string{"nope"} }); err == nil {
		t.Error("bad QIDs should fail")
	}
	if err := bad(func(o *options) { o.aPath = "/nonexistent.csv" }); err == nil {
		t.Error("missing file should fail")
	}
	// A fleet run is a pprl-serve "distributed" job; -worker is undefined
	// (exit 2 on the command line).
	fs := flag.NewFlagSet("pprl-link", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	new(options).register(fs)
	if err := fs.Parse([]string{"-worker", "127.0.0.1:1"}); err == nil || !strings.Contains(err.Error(), "-worker") {
		t.Errorf("-worker parsed: %v", err)
	}
}

// TestRunLinkTier: -tier bloom threads through to the engine — the
// summary reports tier accounting, the timings line gains the tier
// stage, and the JSON document carries the tier counters.
func TestRunLinkTier(t *testing.T) {
	a, b := writePair(t)
	var buf bytes.Buffer
	opts := baseOpts(a, b)
	opts.Tier = "bloom"
	if err := run(&buf, opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tier=bloom") || !strings.Contains(out, "tier-nonmatch=") {
		t.Errorf("summary missing tier accounting: %q", out)
	}
	if !strings.Contains(out, "timings: anonymize-alice=") || !strings.Contains(out, " order=") || !strings.Contains(out, " tier=") {
		t.Errorf("timings missing tier stage: %q", out)
	}

	buf.Reset()
	opts.jsonOut = true
	if err := run(&buf, opts); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Result struct {
			Tier               string `json:"tier"`
			TierNonMatched     int64  `json:"tier_nonmatched_pairs"`
			TierUncertainPairs int64  `json:"tier_uncertain_pairs"`
		} `json:"result"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON output unparseable: %v\n%s", err, buf.String())
	}
	if doc.Result.Tier != "bloom" {
		t.Errorf("JSON tier = %q, want bloom", doc.Result.Tier)
	}
	if doc.Result.TierNonMatched+doc.Result.TierUncertainPairs == 0 {
		t.Error("JSON tier counters all zero; the tier never ran")
	}

	// Unknown mode is rejected before any work happens.
	opts.Tier = "paillier"
	if err := run(&bytes.Buffer{}, opts); err == nil || !strings.Contains(err.Error(), "unknown tier mode") {
		t.Errorf("bad -tier accepted: %v", err)
	}
}

// TestRunLinkDedup: -dedup links one relation against itself through
// the incremental engine and the emitted unordered pairs match the
// exact rule (ample allowance, perfect evaluation).
func TestRunLinkDedup(t *testing.T) {
	a, _ := writePair(t)
	var buf bytes.Buffer
	opts := baseOpts(a, "")
	opts.dedup = true
	opts.AllowanceFraction = 0.5 // ample over n(n-1)/2
	opts.eval = true
	opts.jsonOut = true
	opts.showPairs = true
	if err := run(&buf, opts); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Dedup      bool `json:"dedup"`
		Records    int  `json:"records"`
		Evaluation *struct {
			FalsePositives int64
			FalseNegatives int64
		} `json:"evaluation"`
		TruthPairs int                  `json:"truth_pairs"`
		Matches    [][]int              `json:"-"`
		RawMatches []struct{ I, J int } `json:"matches"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if !doc.Dedup || doc.Records == 0 {
		t.Fatalf("dedup doc malformed: %s", buf.String())
	}
	if doc.Evaluation == nil {
		t.Fatal("dedup -eval emitted no evaluation")
	}
	if doc.Evaluation.FalsePositives != 0 || doc.Evaluation.FalseNegatives != 0 {
		t.Errorf("ample-allowance dedup is not exact: %+v (|truth|=%d)", doc.Evaluation, doc.TruthPairs)
	}
	for _, m := range doc.RawMatches {
		if m.I >= m.J {
			t.Errorf("dedup pair (%d,%d) not normalized to i < j", m.I, m.J)
		}
	}

	// Guard rails.
	if err := run(nil, func() options { o := baseOpts(a, a); o.dedup = true; return o }()); err == nil {
		t.Error("-dedup with -b should fail")
	}
	if err := run(nil, func() options { o := baseOpts(a, ""); o.dedup = true; o.Epsilon = 1; return o }()); err == nil {
		t.Error("-dedup with -epsilon should fail")
	}
	if err := run(nil, func() options { o := baseOpts(a, a); o.level = 2; return o }()); err == nil {
		t.Error("-level without -dedup should fail")
	}
	// The live engine reads a zero allowance as unlimited, so a fraction
	// that buys no pair is refused rather than spent without bound.
	for _, frac := range []float64{0, 1e-7} {
		o := baseOpts(a, "")
		o.dedup, o.AllowanceFraction = true, frac
		if err := run(new(bytes.Buffer), o); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("-allowance %v", frac)) || !strings.Contains(err.Error(), "record pairs") {
			t.Errorf("-dedup -allowance %v: err = %v, want a refusal naming the fraction and the pair count", frac, err)
		}
	}
}
