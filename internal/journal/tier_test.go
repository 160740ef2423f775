package journal

import (
	"path/filepath"
	"testing"
)

// TestTierRecordSeparation journals an interleaved mix of tier-labeled
// and purchased verdicts and checks that replay keeps the two streams
// apart: Begin hands a resumed engine only the purchased verdicts (the
// ones that consumed allowance), while the tier labels stay visible to
// auditors through Recovered.TierVerdicts.
func TestTierRecordSeparation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	m := testManifest()
	w, err := Create(path, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin(m); err != nil {
		t.Fatal(err)
	}
	// The engines interleave the two record types in walk order; any order
	// must replay into the two lists.
	tier := []Verdict{{I: 1, J: 2, Matched: true}, {I: 3, J: 4, Matched: false}, {I: 5, J: 6, Matched: true}}
	for _, v := range tier {
		if err := w.RecordTier(int(v.I), int(v.J), v.Matched); err != nil {
			t.Fatal(err)
		}
	}
	bought := someVerdicts(4)
	for _, v := range bought {
		if err := w.Record(int(v.I), int(v.J), v.Matched); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Verdicts) != len(bought) {
		t.Fatalf("replayed %d purchased verdicts, wrote %d", len(rec.Verdicts), len(bought))
	}
	for i, v := range bought {
		if rec.Verdicts[i] != v {
			t.Errorf("purchased verdict %d: got %+v, want %+v", i, rec.Verdicts[i], v)
		}
	}
	if len(rec.TierVerdicts) != len(tier) {
		t.Fatalf("replayed %d tier verdicts, wrote %d", len(rec.TierVerdicts), len(tier))
	}
	for i, v := range tier {
		if rec.TierVerdicts[i] != v {
			t.Errorf("tier verdict %d: got %+v, want %+v", i, rec.TierVerdicts[i], v)
		}
	}

	// A resumed writer must replay only the purchased stream.
	rw, err := Resume(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prior, err := rw.Begin(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != len(bought) {
		t.Fatalf("resumed Begin returned %d verdicts, want only the %d purchased", len(prior), len(bought))
	}
	// A resumed run re-records its (recomputed) tier labels; the journal
	// is append-only, so both generations coexist on disk.
	if err := rw.RecordTier(7, 8, false); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.TierVerdicts) != len(tier)+1 || len(rec2.Verdicts) != len(bought) {
		t.Errorf("after resume: %d tier / %d purchased, want %d / %d",
			len(rec2.TierVerdicts), len(rec2.Verdicts), len(tier)+1, len(bought))
	}
}
