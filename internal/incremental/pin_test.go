package incremental_test

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/blocking"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/incremental"
	"pprl/internal/journal"
)

// pinStep is one append of the pinned schedule.
type pinStep struct {
	side int
	recs []dataset.Record
}

// pinSchedule is the pinned world: 3,000 Adult records split into two
// overlapping relations, appended in 2·k alternating batches.
func pinSchedule(k int) (*dataset.Schema, []pinStep) {
	alice, bob := dataset.SplitOverlap(adult.Generate(3000, 41), rand.New(rand.NewSource(42)))
	var steps []pinStep
	for b := 0; b < k; b++ {
		steps = append(steps,
			pinStep{0, alice.Records()[b*alice.Len()/k : (b+1)*alice.Len()/k]},
			pinStep{1, bob.Records()[b*bob.Len()/k : (b+1)*bob.Len()/k]})
	}
	return alice.Schema(), steps
}

// TestLiveJournalPinned holds the live engine's outputs — the journal's
// bytes, the delta sequence and each batch's delta set — to hashes: what a
// batch buys, in which order, and what it files where are a format other
// processes resume from, so a change to how groups are built must not move
// a byte. The journal runs at the benchmark's SyncEvery 4096.
//
// The journal and sequence hashes were re-pinned when bob-side batches
// began walking their groups column by column (format v3, whose column
// span records frame one new bob record's verdicts together): a batch's
// deltas come out in walk order, so the sequence moved, while the
// per-batch delta sets, recorded before that change, did not move for any
// variant. They were re-pinned before that for format v2 and, for the
// tier, when it lost its Match band (see its row).
//
// The tier variant's journal as the last v1 build wrote it is
// testdata/pinned-v1-tier/ingest.wal: both files must replay to the same
// batch frames, each frame's verdicts and tier labels the same multisets
// (the v1 build walked bob-side batches row by row).
func TestLiveJournalPinned(t *testing.T) {
	const k = 6
	schema, steps := pinSchedule(k)
	base := incremental.Config{QIDs: adult.DefaultQIDs(), Theta: 0.05, Strategy: core.MaximizePrecision}

	for _, c := range []struct {
		name string
		cfg  func(incremental.Config) incremental.Config
		// crashAt ≥ 0 fails that batch's commit, then resumes from the journal.
		crashAt          int
		wantWAL, wantSeq string
		// v1 is the variant's journal as the v1 writer made it, if kept.
		v1 string
		// wantSet hashes each batch's exposed deltas sorted by pair: what a
		// batch finds, whatever order its walk found it in.
		wantSet string
	}{
		{"plain", func(c incremental.Config) incremental.Config { return c }, -1,
			"61d5fa52825ba6ad6da38a007bd814622a848544064149d19d1bad55d165e5d8",
			"842f6384a23acdbc9b8bd6f6c43c55779033fdeca1f5200cfa385acfad2fc965", "",
			"dc2a0ce4cf6530cd90c5274a4a482df65275dc914028e91627ab633abb81cf7c"},
		{"tier", func(c incremental.Config) incremental.Config { c.Tier = core.TierBloom; return c }, -1,
			// Re-pinned once, when the tier lost its Match band and its default
			// threshold moved to 0.90: the journal now holds NonMatch tier
			// records only, and the delta sequence is the plain run's — the
			// tier changed no delta.
			"57c6a520a3f5cc58c96e3e83797b01cb49cd96ba016a35d522d6d359c7e5f26d",
			"842f6384a23acdbc9b8bd6f6c43c55779033fdeca1f5200cfa385acfad2fc965",
			filepath.Join("testdata", "pinned-v1-tier", "ingest.wal"),
			"dc2a0ce4cf6530cd90c5274a4a482df65275dc914028e91627ab633abb81cf7c"},
		{"bounded recall", func(c incremental.Config) incremental.Config {
			c.Allowance, c.Strategy = 20000, core.MaximizeRecall
			return c
		}, -1,
			"3f722c437b7cc4663bd4837debb41f460558e107a7ba6c22f0b57c6e62cfb606",
			"459b473d2b08e5719abc7afe582dfce8ddddee8c883f6b48fe25f1dbb3a01884", "",
			"9f6ab8c950d003f331fbafee50257ab5822a90d5d4b85795aeedb1100622c24f"},
		{"crash-resumed tail", func(c incremental.Config) incremental.Config { return c }, 7,
			"61d5fa52825ba6ad6da38a007bd814622a848544064149d19d1bad55d165e5d8",
			"842f6384a23acdbc9b8bd6f6c43c55779033fdeca1f5200cfa385acfad2fc965", "",
			"dc2a0ce4cf6530cd90c5274a4a482df65275dc914028e91627ab633abb81cf7c"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ingest.wal")
			seq := sha256.New()
			var exposed []incremental.Delta
			// feed appends the schedule and hashes every exposed delta; it
			// reports the step whose append failed, or len(steps).
			feed := func(eng *incremental.Engine) int {
				for b := range steps {
					res, err := eng.Append(steps[b].side, steps[b].recs)
					if err != nil {
						if b == c.crashAt {
							return b
						}
						t.Fatal(err)
					}
					if res.Replayed {
						continue // exposed before the crash
					}
					for _, d := range res.Deltas {
						fmt.Fprintf(seq, "%d:%d:%d:%d:%d;", d.Batch, d.I, d.J, d.AliceID, d.BobID)
					}
					exposed = append(exposed, res.Deltas...)
				}
				return len(steps)
			}

			jw, err := journal.Create(path, journal.Options{SyncEvery: 4096})
			if err != nil {
				t.Fatal(err)
			}
			cfg := c.cfg(base)
			cfg.Journal = jw
			if c.crashAt >= 0 {
				cfg.Journal = &commitCrash{Writer: jw, failBatch: uint32(c.crashAt)}
			}
			eng, err := incremental.New(schema, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stopped := feed(eng)
			if err := jw.Close(); err != nil {
				t.Fatal(err)
			}
			if c.crashAt >= 0 {
				if stopped != c.crashAt {
					t.Fatalf("the injected crash surfaced at batch %d, want %d", stopped, c.crashAt)
				}
				jw, err = journal.Resume(path, journal.Options{SyncEvery: 4096})
				if err != nil {
					t.Fatal(err)
				}
				cfg := c.cfg(base)
				cfg.Journal, cfg.Recovered = jw, jw.Recovered()
				if eng, err = incremental.New(schema, cfg); err != nil {
					t.Fatal(err)
				}
				feed(eng)
				if err := jw.Close(); err != nil {
					t.Fatal(err)
				}
				if st := eng.Stats(); st.Replayed == 0 || st.Purchased == 0 {
					t.Fatalf("resume replayed %d and purchased %d verdicts; the fixture wants both", st.Replayed, st.Purchased)
				}
			}
			if st := eng.Stats(); st.Deltas == 0 || st.Used == 0 {
				t.Fatalf("fixture exercises nothing: %+v", st)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			gotWAL, gotSeq := fmt.Sprintf("%x", sha256.Sum256(raw)), fmt.Sprintf("%x", seq.Sum(nil))
			if gotWAL != c.wantWAL {
				t.Errorf("journal (%d bytes) hashes to %s, pinned %s", len(raw), gotWAL, c.wantWAL)
			}
			if gotSeq != c.wantSeq {
				t.Errorf("delta sequence hashes to %s, pinned %s", gotSeq, c.wantSeq)
			}
			slices.SortFunc(exposed, func(x, y incremental.Delta) int {
				return cmp.Or(cmp.Compare(x.Batch, y.Batch), cmp.Compare(x.I, y.I), cmp.Compare(x.J, y.J))
			})
			set := sha256.New()
			for _, d := range exposed {
				fmt.Fprintf(set, "%d:%d:%d:%d:%d;", d.Batch, d.I, d.J, d.AliceID, d.BobID)
			}
			if gotSet := fmt.Sprintf("%x", set.Sum(nil)); gotSet != c.wantSet {
				t.Errorf("per-batch delta sets hash to %s, pinned %s", gotSet, c.wantSet)
			}
			if c.v1 == "" {
				return
			}
			v1, err := journal.Replay(c.v1)
			if err != nil {
				t.Fatal(err)
			}
			now, err := journal.Replay(path)
			if err != nil {
				t.Fatal(err)
			}
			// Sorted copies: a frame's verdicts as a multiset.
			sorted := func(vs []journal.Verdict) []journal.Verdict {
				vs = slices.Clone(vs)
				slices.SortFunc(vs, func(x, y journal.Verdict) int { return cmp.Or(cmp.Compare(x.I, y.I), cmp.Compare(x.J, y.J)) })
				return vs
			}
			for _, r := range []*journal.Recovered{v1, now} {
				r.Verdicts, r.TierVerdicts = sorted(r.Verdicts), sorted(r.TierVerdicts)
				for b := range r.Batches {
					f := &r.Batches[b]
					f.Verdicts, f.TierVerdicts = sorted(f.Verdicts), sorted(f.TierVerdicts)
				}
			}
			for _, f := range []struct {
				name     string
				old, new any
			}{
				{"manifest", v1.Manifest, now.Manifest},
				{"verdicts", v1.Verdicts, now.Verdicts},
				{"tier verdicts", v1.TierVerdicts, now.TierVerdicts},
				{"batch frames", v1.Batches, now.Batches},
				{"torn bytes", v1.TornBytes, now.TornBytes},
			} {
				if !reflect.DeepEqual(f.old, f.new) {
					t.Errorf("the v1 and current journals of one run replay to different %s", f.name)
				}
			}
			if len(now.TierVerdicts) == 0 || len(now.Verdicts) == 0 {
				t.Errorf("the run journals %d purchases and %d tier labels; the comparison wants both", len(now.Verdicts), len(now.TierVerdicts))
			}
		})
	}
}

// TestLegacyTierMatchJournalRestarts: testdata/legacy-tier-match/ingest.wal
// was written by the build before the tier lost its Match band (400 Adult
// records in four batches, tier on at that build's bands, pool of 1,500):
// every one of its 400 deltas came from a tier Match record. Those batches
// committed and their deltas were exposed, so a restart under this build —
// tier on or off — must replay every frame with the deltas it committed
// with (deltas.txt, written by the same run; in walk order, and that build
// walked bob-side batches row by row, so each batch's are compared as a
// multiset), buy nothing, and go on accepting batches, whose tier labels
// can only be NonMatch.
func TestLegacyTierMatchJournalRestarts(t *testing.T) {
	fixture := filepath.Join("testdata", "legacy-tier-match")
	wantDeltas, err := os.ReadFile(filepath.Join(fixture, "deltas.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(fixture, "ingest.wal"))
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := dataset.SplitOverlap(adult.Generate(400, 41), rand.New(rand.NewSource(42)))
	const k = 2
	var steps []pinStep
	for b := 0; b < k; b++ {
		steps = append(steps,
			pinStep{0, alice.Records()[b*alice.Len()/k : (b+1)*alice.Len()/k]},
			pinStep{1, bob.Records()[b*bob.Len()/k : (b+1)*bob.Len()/k]})
	}
	for _, tier := range []core.TierMode{core.TierOff, core.TierBloom} {
		path := filepath.Join(t.TempDir(), "ingest.wal")
		if err := os.WriteFile(path, wal, 0o644); err != nil {
			t.Fatal(err)
		}
		jw, err := journal.Resume(path, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		legacyMatches := 0
		for _, f := range jw.Recovered().Batches {
			for _, v := range f.TierVerdicts {
				if v.Matched {
					legacyMatches++
				}
			}
		}
		if legacyMatches == 0 {
			t.Fatal("the fixture holds no tier Match record; it exercises nothing")
		}
		eng, err := incremental.New(alice.Schema(), incremental.Config{
			QIDs: adult.DefaultQIDs(), Theta: 0.05, Strategy: core.MaximizePrecision, Allowance: 1500,
			Tier: tier, Journal: jw, Recovered: jw.Recovered(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, s := range steps {
			res, err := eng.Append(s.side, s.recs)
			if err != nil {
				t.Fatalf("tier %v: %v", tier, err)
			}
			if !res.Replayed {
				t.Fatalf("tier %v: committed batch %d was not replayed", tier, res.Batch)
			}
			for _, d := range res.Deltas {
				fmt.Fprintf(&got, "%d %d %d %d %d\n", d.Batch, d.I, d.J, d.AliceID, d.BobID)
			}
		}
		if lines := func(s string) []string {
			l := strings.SplitAfter(s, "\n")
			slices.Sort(l)
			return l
		}; !slices.Equal(lines(got.String()), lines(string(wantDeltas))) {
			t.Errorf("tier %v: the restart moved the committed delta stream (%d bytes, the first life wrote %d)", tier, got.Len(), len(wantDeltas))
		}
		if st := eng.Stats(); st.Purchased != 0 || st.Used != 162 || st.Deltas != legacyMatches {
			t.Errorf("tier %v: restart accounting %+v; want nothing bought, 162 used, %d deltas", tier, st, legacyMatches)
		}
		// A new batch (bob's first records again, on alice's side, so it
		// holds true matches): whatever the tier labels now is a NonMatch, so
		// every new delta is a match of the exact decision rule.
		more := bob.Records()[:60]
		res, err := eng.Append(0, more)
		if err != nil {
			t.Fatalf("tier %v: appending after the restart: %v", tier, err)
		}
		grown := dataset.New(alice.Schema())
		for _, rec := range append(alice.Records(), more...) {
			if err := grown.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		qids, err := alice.Schema().Resolve(adult.DefaultQIDs())
		if err != nil {
			t.Fatal(err)
		}
		rule := mustRule(t, alice.Schema(), qids, 0.05, nil)
		if len(res.Deltas) == 0 {
			t.Errorf("tier %v: the new batch emitted no delta; it checks nothing", tier)
		}
		for _, d := range res.Deltas {
			if !rule.DecideExact(blocking.RecordSequence(grown, qids, d.I), blocking.RecordSequence(bob, qids, d.J)) {
				t.Errorf("tier %v: new delta (%d,%d) is not a match of the exact rule: a free Match got through", tier, d.I, d.J)
			}
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
