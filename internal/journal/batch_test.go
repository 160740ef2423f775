package journal

import (
	"os"
	"path/filepath"
	"testing"
)

// writeBatchRun journals two committed batches and one uncommitted tail
// batch, returning the path.
func writeBatchRun(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "inc.wal")
	w, err := Create(path, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin(testManifest()); err != nil {
		t.Fatal(err)
	}
	mark := func(b uint32, side uint8, n uint32) BatchMark {
		m := BatchMark{Batch: b, Side: side, Records: n}
		for i := range m.Digest {
			m.Digest[i] = byte(b)*31 + byte(i)
		}
		return m
	}
	// Batch 0: two purchased verdicts, one tier verdict, committed.
	if err := w.RecordBatch(mark(0, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Record(1, 2, true); err != nil {
		t.Fatal(err)
	}
	if err := w.RecordTier(1, 3, false); err != nil {
		t.Fatal(err)
	}
	if err := w.Record(2, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := w.RecordBatchCommit(BatchCommit{Batch: 0, Deltas: 1, Spent: 2}); err != nil {
		t.Fatal(err)
	}
	// Batch 1: empty (no uncertain pairs), committed.
	if err := w.RecordBatch(mark(1, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.RecordBatchCommit(BatchCommit{Batch: 1, Deltas: 0, Spent: 0}); err != nil {
		t.Fatal(err)
	}
	// Batch 2: one verdict, crash before commit.
	if err := w.RecordBatch(mark(2, 0, 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Record(7, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBatchFramesRoundTrip(t *testing.T) {
	path := writeBatchRun(t, t.TempDir())
	rec, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 3 {
		t.Fatalf("replayed %d batch frames, want 3", len(rec.Batches))
	}
	b0, b1, b2 := rec.Batches[0], rec.Batches[1], rec.Batches[2]
	if !b0.Committed || b0.Commit.Deltas != 1 || b0.Commit.Spent != 2 {
		t.Fatalf("batch 0 commit = %+v committed=%v", b0.Commit, b0.Committed)
	}
	if len(b0.Verdicts) != 2 || len(b0.TierVerdicts) != 1 {
		t.Fatalf("batch 0 has %d/%d verdicts, want 2/1", len(b0.Verdicts), len(b0.TierVerdicts))
	}
	if b0.Mark.Side != 0 || b0.Mark.Records != 5 || b0.Mark.Digest[1] != 1 {
		t.Fatalf("batch 0 mark = %+v", b0.Mark)
	}
	if !b1.Committed || len(b1.Verdicts) != 0 || b1.Mark.Side != 1 {
		t.Fatalf("batch 1 frame = %+v", b1)
	}
	if b2.Committed {
		t.Fatal("tail batch must be uncommitted")
	}
	if len(b2.Verdicts) != 1 || b2.Verdicts[0] != (Verdict{I: 7, J: 0, Matched: true}) {
		t.Fatalf("tail batch verdicts = %+v", b2.Verdicts)
	}
	// The flat lists still see everything, so frozen-run accounting is
	// untouched by the batch framing.
	if len(rec.Verdicts) != 3 || len(rec.TierVerdicts) != 1 {
		t.Fatalf("flat lists have %d/%d verdicts, want 3/1", len(rec.Verdicts), len(rec.TierVerdicts))
	}
}

// TestBatchResumeAppendsIntoOpenFrame resumes a journal whose tail batch
// is uncommitted and finishes it: the continuation's verdicts land in the
// same frame and the commit seals it.
func TestBatchResumeAppendsIntoOpenFrame(t *testing.T) {
	path := writeBatchRun(t, t.TempDir())
	w, err := Resume(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec := w.Recovered(); rec == nil || len(rec.Batches) != 3 {
		t.Fatalf("Recovered() = %+v, want 3 batch frames", w.Recovered())
	}
	if _, err := w.Begin(testManifest()); err != nil {
		t.Fatal(err)
	}
	if err := w.Record(7, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := w.RecordBatchCommit(BatchCommit{Batch: 2, Deltas: 1, Spent: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	b2 := rec.Batches[2]
	if !b2.Committed || len(b2.Verdicts) != 2 {
		t.Fatalf("resumed tail frame = committed %v with %d verdicts, want true/2", b2.Committed, len(b2.Verdicts))
	}
}

// TestBatchTornCommit cuts the file inside the commit record: the frame
// must come back uncommitted with its verdicts intact, and Resume must
// truncate the torn bytes.
func TestBatchTornCommit(t *testing.T) {
	path := writeBatchRun(t, t.TempDir())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The file ends mid-batch-2 already; cut into batch 0's commit region
	// instead: chop the last 3 bytes to tear the final verdict record.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornBytes == 0 {
		t.Fatal("expected torn bytes")
	}
	if len(rec.Batches) != 3 || rec.Batches[2].Committed || len(rec.Batches[2].Verdicts) != 0 {
		t.Fatalf("torn replay frames = %+v", rec.Batches)
	}
}

// TestBatchOrderingEnforced rejects out-of-order marks and stray commits.
func TestBatchOrderingEnforced(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.wal")
	w, err := Create(path, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin(testManifest()); err != nil {
		t.Fatal(err)
	}
	if err := w.RecordBatch(BatchMark{Batch: 1}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := Replay(path); err == nil {
		t.Fatal("replay accepted a non-dense batch mark")
	}

	path2 := filepath.Join(dir, "bad2.wal")
	w2, err := Create(path2, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Begin(testManifest()); err != nil {
		t.Fatal(err)
	}
	if err := w2.RecordBatchCommit(BatchCommit{Batch: 0}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if _, err := Replay(path2); err == nil {
		t.Fatal("replay accepted a commit without an open batch")
	}
}

// TestFrameFsyncsOnce: inside a batch frame the SyncEvery cadence and Sync
// write the window without fsyncing it, and the commit is the frame's one
// fsync — in a frame this writer opened and in the uncommitted tail frame
// Resume recovered. Outside a frame the cadence still fsyncs.
func TestFrameFsyncsOnce(t *testing.T) {
	const every = 4
	frame := func(t *testing.T, w *Writer, path string, batch uint32, mark bool) {
		t.Helper()
		if mark {
			if err := w.RecordBatch(BatchMark{Batch: batch}); err != nil {
				t.Fatal(err)
			}
		}
		fsyncs, size, writes := w.fsyncs, fileSize(t, path), 0
		for i := 0; i < 3*every+1; i++ {
			if err := w.Record(i, i, i%2 == 0); err != nil {
				t.Fatal(err)
			}
			if got := fileSize(t, path); got != size {
				size, writes = got, writes+1
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := fileSize(t, path); got != size {
			size, writes = got, writes+1
		}
		if w.fsyncs != fsyncs || writes < 3 {
			t.Fatalf("batch %d before its commit: %d fsyncs and %d window writes, want 0 and ≥ 3", batch, w.fsyncs-fsyncs, writes)
		}
		if err := w.RecordBatchCommit(BatchCommit{Batch: batch}); err != nil {
			t.Fatal(err)
		}
		if w.fsyncs != fsyncs+1 {
			t.Fatalf("batch %d cost %d fsyncs, want the commit's one", batch, w.fsyncs-fsyncs)
		}
	}

	path := filepath.Join(t.TempDir(), "inc.wal")
	w := beginAt(t, path, Options{SyncEvery: every})
	frame(t, w, path, 0, true)
	frame(t, w, path, 1, true)
	if err := w.RecordBatch(BatchMark{Batch: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // a clean stop inside a frame fsyncs it
		t.Fatal(err)
	}
	if rec, err := Replay(path); err != nil || len(rec.Batches) != 3 || rec.Batches[2].Committed {
		t.Fatalf("replay after a close inside batch 2: %v", err)
	}
	r, err := Resume(path, Options{SyncEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Begin(testManifest()); err != nil {
		t.Fatal(err)
	}
	frame(t, r, path, 2, false)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// A frozen run has no frame: every window is fsynced.
	w = beginAt(t, filepath.Join(t.TempDir(), "run.wal"), Options{SyncEvery: every})
	defer w.Close()
	fsyncs := w.fsyncs
	for i := 0; i < 3*every; i++ {
		if err := w.Record(i, i, false); err != nil {
			t.Fatal(err)
		}
	}
	if w.fsyncs-fsyncs != 3 {
		t.Fatalf("%d records at SyncEvery %d outside a frame cost %d fsyncs, want 3", 3*every, every, w.fsyncs-fsyncs)
	}
}
