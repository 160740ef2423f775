package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// event is one call on a writer, with a reference encoding of the frame
// it must produce that shares no code with the writer's.
type event struct {
	kind   byte // a record type, or 0 for an explicit Sync
	v      Verdict
	mark   BatchMark
	commit BatchCommit
}

func (e event) apply(w *Writer) error {
	switch e.kind {
	case recVerdict:
		return w.Record(int(e.v.I), int(e.v.J), e.v.Matched)
	case recTierVerdict:
		return w.RecordTier(int(e.v.I), int(e.v.J), e.v.Matched)
	case recBatch:
		return w.RecordBatch(e.mark)
	case recBatchCommit:
		return w.RecordBatchCommit(e.commit)
	}
	return w.Sync()
}

// payload is the record's on-disk payload per DESIGN.md §8/§15; nil for a
// Sync, which writes nothing.
func (e event) payload() []byte {
	le := binary.LittleEndian
	switch e.kind {
	case recVerdict, recTierVerdict:
		p := le.AppendUint32(le.AppendUint32([]byte{e.kind}, e.v.I), e.v.J)
		if e.v.Matched {
			return append(p, 1)
		}
		return append(p, 0)
	case recBatch:
		p := append(le.AppendUint32([]byte{e.kind}, e.mark.Batch), e.mark.Side)
		return append(le.AppendUint32(p, e.mark.Records), e.mark.Digest[:]...)
	case recBatchCommit:
		p := le.AppendUint32(le.AppendUint32([]byte{e.kind}, e.commit.Batch), e.commit.Deltas)
		return le.AppendUint64(p, uint64(e.commit.Spent))
	}
	return nil
}

// refFrame appends payload's frame: length | payload | CRC32-C.
func refFrame(out, payload []byte) []byte {
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
}

// spanPayload is the span record of verdicts vs, all on row vs[0].I, of
// kind's span type: type | i | n u16 | j's | bitmap, verdict x at bit x%8
// of byte x/8.
func spanPayload(kind byte, vs []Verdict) []byte {
	le := binary.LittleEndian
	column := vs[1].I != vs[0].I
	t, fixed := byte(6), vs[0].I
	if column {
		t, fixed = 8, vs[0].J
	}
	if kind == recTierVerdict {
		t++
	}
	p := le.AppendUint16(le.AppendUint32([]byte{t}, fixed), uint16(len(vs)))
	for _, v := range vs {
		if column {
			p = le.AppendUint32(p, v.I)
		} else {
			p = le.AppendUint32(p, v.J)
		}
	}
	bits := make([]byte, (len(vs)+7)/8)
	for x, v := range vs {
		if v.Matched {
			bits[x/8] |= 1 << (x % 8)
		}
	}
	return append(p, bits...)
}

// refFrameAt is one frame of the reference framing and the number of
// events up to and including the last one it holds.
type refFrameAt struct {
	bytes  []byte
	events int
}

// refFrames is what the events must produce after header and manifest
// under a sync cadence. Verdicts of one kind on one row coalesce into a
// span until something else happens — a verdict of another row or kind,
// another record, a Sync (explicit, the cadence's, a commit's), or the
// window, the open span counted, reaching flushBytes; a span of one is
// the verdict's own record.
func refFrames(events []event, syncEvery int) []refFrameAt {
	var (
		frames           []refFrameAt
		run              []Verdict
		runKind          byte
		runEnd           int
		window, unsynced int // bytes since the last write; records since the last sync
	)
	runLen := func() int {
		switch len(run) {
		case 0:
			return 0
		case 1:
			return 4 + 10 + 4
		}
		return 4 + 7 + 4*len(run) + (len(run)+7)/8 + 4
	}
	add := func(f []byte, end int) {
		frames = append(frames, refFrameAt{f, end})
		window += len(f)
	}
	closeRun := func() {
		switch {
		case len(run) == 1:
			add(refFrame(nil, event{kind: runKind, v: run[0]}.payload()), runEnd)
		case len(run) > 1:
			add(refFrame(nil, spanPayload(runKind, run)), runEnd)
		}
		run = run[:0]
	}
	write := func() { closeRun(); window = 0 }
	sync := func() { write(); unsynced = 0 }
	for k, e := range events {
		switch e.kind {
		case 0:
			sync()
			continue
		case recVerdict, recTierVerdict:
			row := len(run) > 0 && e.v.I == run[0].I && (len(run) == 1 || run[1].I == run[0].I)
			column := len(run) > 0 && e.v.J == run[0].J && (len(run) == 1 || run[1].I != run[0].I)
			if len(run) > 0 && (e.kind != runKind || !row && !column) {
				closeRun()
			}
			run, runKind, runEnd = append(run, e.v), e.kind, k+1
		default:
			closeRun()
			add(refFrame(nil, e.payload()), k+1)
			if e.kind == recBatchCommit {
				sync()
				continue
			}
		}
		if unsynced++; unsynced >= syncEvery {
			sync()
		} else if window+runLen() >= flushBytes {
			write()
		}
	}
	closeRun()
	return frames
}

// refImage is the file the events must produce under a sync cadence.
func refImage(m Manifest, events []event, syncEvery int) []byte {
	out := buildImage(m, nil)
	for _, f := range refFrames(events, syncEvery) {
		out = append(out, f.bytes...)
	}
	return out
}

// randomEvents draws a replayable stream: verdicts and tier verdicts
// inside and outside batch frames, most of them in runs on one row or one
// column (the spans the kernel delivers), dense batch marks, commits that
// close the open frame, and stray Syncs.
func randomEvents(rng *rand.Rand, n int) []event {
	var out []event
	open, next := false, uint32(0)
	var last event
	for len(out) < n {
		switch r := rng.Intn(20); {
		case r == 0:
			out = append(out, event{})
		case r == 1 && !open:
			e := event{kind: recBatch, mark: BatchMark{Batch: next, Side: uint8(rng.Intn(2)), Records: rng.Uint32()}}
			rng.Read(e.mark.Digest[:])
			out, open = append(out, e), true
		case r == 2 && open:
			out = append(out, event{kind: recBatchCommit, commit: BatchCommit{Batch: next, Deltas: rng.Uint32(), Spent: rng.Int63()}})
			open, next = false, next+1
		default:
			e := event{kind: recVerdict, v: Verdict{I: rng.Uint32(), J: rng.Uint32(), Matched: rng.Intn(2) == 0}}
			if r < 6 {
				e.kind = recTierVerdict
			}
			switch r := rng.Intn(10); {
			case last.kind != 0 && r < 5:
				e.kind, e.v.I = last.kind, last.v.I // the row's run goes on
			case last.kind != 0 && r < 8:
				e.kind, e.v.J = last.kind, last.v.J // the column's run goes on
			}
			out, last = append(out, e), e
		}
	}
	return out
}

func beginAt(t testing.TB, path string, opts Options) *Writer {
	t.Helper()
	w, err := Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin(testManifest()); err != nil {
		t.Fatal(err)
	}
	return w
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestWindowVisibility: records reach the file a window at a time — when
// the sync cadence fires, on Sync, on Close, and when the window reaches
// flushBytes (a write, not an fsync).
func TestWindowVisibility(t *testing.T) {
	const frame = 4 + verdictPayloadLen + 4
	base := int64(len(buildImage(testManifest(), nil)))
	record := func(t *testing.T, w *Writer, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := w.Record(i, i+1, i%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("cadence", func(t *testing.T) {
		const n = 8
		path := filepath.Join(t.TempDir(), "run.wal")
		w := beginAt(t, path, Options{SyncEvery: n})
		defer w.Close()
		if got := fileSize(t, path); got != base {
			t.Fatalf("after Begin: %d bytes on file, want header + manifest = %d", got, base)
		}
		record(t, w, n-1)
		if got := fileSize(t, path); got != base {
			t.Fatalf("after %d of %d records: %d bytes on file, want %d", n-1, n, got, base)
		}
		record(t, w, 1)
		if got := fileSize(t, path); got != base+n*frame {
			t.Fatalf("after the window's last record: %d bytes on file, want %d", got, base+n*frame)
		}
		if w.Recorded() != n {
			t.Fatalf("Recorded() = %d, want %d", w.Recorded(), n)
		}
	})

	t.Run("sync and close flush a partial window", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.wal")
		w := beginAt(t, path, Options{SyncEvery: 100})
		record(t, w, 3)
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := fileSize(t, path); got != base+3*frame {
			t.Fatalf("after Sync: %d bytes on file, want %d", got, base+3*frame)
		}
		record(t, w, 2)
		if got := fileSize(t, path); got != base+3*frame {
			t.Fatalf("window visible before its flush: %d bytes on file, want %d", got, base+3*frame)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := fileSize(t, path); got != base+5*frame {
			t.Fatalf("after Close: %d bytes on file, want %d", got, base+5*frame)
		}
	})

	t.Run("size bound", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.wal")
		w := beginAt(t, path, Options{SyncEvery: 1 << 30})
		defer w.Close()
		n := (flushBytes + frame - 1) / frame
		record(t, w, n-1)
		if got := fileSize(t, path); got != base {
			t.Fatalf("window of %d bytes already written (file %d, want %d)", (n-1)*frame, got, base)
		}
		record(t, w, 1)
		if got := fileSize(t, path); got != base+int64(n)*frame {
			t.Fatalf("window of %d ≥ %d bytes not written: file %d, want %d", n*frame, flushBytes, got, base+int64(n)*frame)
		}
		if w.unsynced != n {
			t.Fatalf("size-bound flush reset the sync cadence: unsynced = %d, want %d", w.unsynced, n)
		}
		if cap(w.buf) > 2*flushBytes {
			t.Fatalf("window buffer grew to %d bytes", cap(w.buf))
		}
	})
}

// TestWindowByteIdentity: whatever the sync cadence and wherever explicit
// Syncs fall, the file is the plain concatenation of the reference
// framing's frames — spans cut exactly where the writer must cut them.
func TestWindowByteIdentity(t *testing.T) {
	dir := t.TempDir()
	spans := 0
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Mostly short windows; now and then one only the size bound ends.
		events := randomEvents(rng, 20+rng.Intn(400))
		syncEvery := 1 + rng.Intn(70)
		if seed%5 == 0 {
			events, syncEvery = randomEvents(rng, 5000), 1<<20
		}
		path := filepath.Join(dir, fmt.Sprintf("run-%d.wal", seed))
		w := beginAt(t, path, Options{SyncEvery: syncEvery})
		for i, e := range events {
			if err := e.apply(w); err != nil {
				t.Fatalf("seed %d event %d: %v", seed, i, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := refImage(testManifest(), events, syncEvery)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d (SyncEvery %d, %d events): file differs from the reference framing (%d vs %d bytes)",
				seed, syncEvery, len(events), len(got), len(want))
		}
		rec, err := parse(got)
		if err != nil || rec.TornBytes != 0 {
			t.Fatalf("seed %d: written file does not replay cleanly: %+v, %v", seed, rec, err)
		}
		if !reflect.DeepEqual(rec, replayEvents(testManifest(), events, len(got))) {
			t.Fatalf("seed %d: replay does not expand the spans back into the recorded verdicts", seed)
		}
		for _, f := range refFrames(events, syncEvery) {
			if typ := f.bytes[4]; typ == recSpan || typ == recTierSpan {
				spans++
			}
		}
	}
	if spans == 0 {
		t.Fatal("no seed wrote a span record; the test checks the v1 framing only")
	}
}

// replayEvents is the Recovered a clean file of the events must replay to.
func replayEvents(m Manifest, events []event, size int) *Recovered {
	rec := &Recovered{Manifest: m, goodOffset: int64(size)}
	open := -1
	for _, e := range events {
		switch e.kind {
		case recVerdict, recTierVerdict:
			flat := &rec.Verdicts
			if e.kind == recTierVerdict {
				flat = &rec.TierVerdicts
			}
			*flat = append(*flat, e.v)
			if open >= 0 && e.kind == recTierVerdict {
				rec.Batches[open].TierVerdicts = append(rec.Batches[open].TierVerdicts, e.v)
			} else if open >= 0 {
				rec.Batches[open].Verdicts = append(rec.Batches[open].Verdicts, e.v)
			}
		case recBatch:
			rec.Batches = append(rec.Batches, BatchFrame{Mark: e.mark})
			open = len(rec.Batches) - 1
		case recBatchCommit:
			rec.Batches[open].Committed, rec.Batches[open].Commit = true, e.commit
			open = -1
		}
	}
	return rec
}

// TestLongRowSplits: one row's run longer than any payload may be — and
// then one column's — is cut into spans by the window bound: every frame's
// payload at most maxPayload, the file the reference framing's, every
// verdict replayed.
func TestLongRowSplits(t *testing.T) {
	var events []event
	for j := uint32(0); j < 40000; j++ {
		events = append(events, event{kind: recVerdict, v: Verdict{I: 9, J: j, Matched: j%7 == 0}})
	}
	for i := uint32(0); i < 40000; i++ {
		events = append(events, event{kind: recVerdict, v: Verdict{I: i, J: 1 << 20, Matched: i%5 == 0}})
	}
	path := filepath.Join(t.TempDir(), "run.wal")
	w := beginAt(t, path, Options{SyncEvery: 1 << 30})
	for _, e := range events {
		if err := e.apply(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := refFrames(events, 1<<30)
	if want := refImage(testManifest(), events, 1<<30); !bytes.Equal(got, want) {
		t.Fatalf("file differs from the reference framing (%d vs %d bytes)", len(got), len(want))
	}
	if len(frames) < 6 {
		t.Fatalf("40,000 verdicts of one row and 40,000 of one column in %d frames", len(frames))
	}
	for _, f := range frames {
		if n := len(f.bytes) - 8; n > maxPayload {
			t.Fatalf("a span payload of %d bytes exceeds maxPayload %d", n, maxPayload)
		}
	}
	rec, err := parse(got)
	if err != nil || !reflect.DeepEqual(rec, replayEvents(testManifest(), events, len(got))) {
		t.Fatalf("the split row does not replay to its verdicts: %v", err)
	}
}

// windowEvents is one multi-frame window of every record type: a batch
// frame opened, filled — lone verdicts, a purchased span, a tier span — and
// committed, and a second one left open inside a span.
func windowEvents() []event {
	events := []event{{kind: recBatch, mark: BatchMark{Batch: 0, Records: 4, Digest: [32]byte{9}}}}
	for i, v := range someVerdicts(6) {
		kind := recVerdict
		if i%3 == 2 {
			kind = recTierVerdict
		}
		events = append(events, event{kind: kind, v: v})
	}
	for j := uint32(0); j < 9; j++ {
		events = append(events, event{kind: recVerdict, v: Verdict{I: 30, J: j, Matched: j%4 == 0}})
	}
	for j := uint32(0); j < 3; j++ {
		events = append(events, event{kind: recTierVerdict, v: Verdict{I: 30, J: 20 + j}})
	}
	events = append(events,
		event{kind: recBatchCommit, commit: BatchCommit{Batch: 0, Deltas: 2, Spent: 4}},
		event{kind: recBatch, mark: BatchMark{Batch: 1, Side: 1, Records: 2, Digest: [32]byte{7}}})
	for i := uint32(50); i < 53; i++ {
		events = append(events, event{kind: recTierVerdict, v: Verdict{I: i, J: 7}})
	}
	for j := uint32(41); j < 45; j++ {
		events = append(events, event{kind: recVerdict, v: Verdict{I: 40, J: j, Matched: j == 43}})
	}
	for i := uint32(41); i < 45; i++ {
		events = append(events, event{kind: recVerdict, v: Verdict{I: i, J: 44, Matched: i == 42}})
	}
	return events
}

// TestTornWindow cuts a window's single write at every byte, inside the
// span frames too: replay keeps the frames before the cut, Resume
// truncates there, the rest of the run appends — a torn span re-recorded
// whole — and the stitched file is the uninterrupted one.
func TestTornWindow(t *testing.T) {
	events := windowEvents()
	whole := refImage(testManifest(), events, 1<<20)
	want := replayEvents(testManifest(), events, len(whole))
	// ends[k] is the file offset just past the k-th frame, done[k] how many
	// events the first k frames hold.
	ends, done := []int{len(buildImage(testManifest(), nil))}, []int{0}
	for _, f := range refFrames(events, 1<<20) {
		ends, done = append(ends, ends[len(ends)-1]+len(f.bytes)), append(done, f.events)
	}
	path := filepath.Join(t.TempDir(), "torn.wal")
	for cut := ends[0]; cut < len(whole); cut++ {
		intact := 0
		for intact+1 < len(ends) && ends[intact+1] <= cut {
			intact++
		}
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Replay(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if rec.goodOffset != int64(ends[intact]) || rec.TornBytes != int64(cut-ends[intact]) {
			t.Fatalf("cut at %d: replay kept %d bytes and dropped %d, want %d and %d",
				cut, rec.goodOffset, rec.TornBytes, ends[intact], cut-ends[intact])
		}
		kept := replayEvents(testManifest(), events[:done[intact]], ends[intact])
		if kept.TornBytes = int64(cut - ends[intact]); !reflect.DeepEqual(rec, kept) {
			t.Fatalf("cut at %d: replay of the intact frames is %+v, want %+v", cut, rec, kept)
		}
		// A large cadence, so the remainder is again one window.
		w, err := Resume(path, Options{SyncEvery: 1 << 20})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if got := fileSize(t, path); got != int64(ends[intact]) {
			t.Fatalf("cut at %d: Resume left %d bytes on file, want %d", cut, got, ends[intact])
		}
		if _, err := w.Begin(testManifest()); err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		for _, e := range events[done[intact]:] {
			if err := e.apply(w); err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		stitched, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stitched, whole) {
			t.Fatalf("cut at %d: stitched file differs from the uninterrupted one", cut)
		}
		full, err := parse(stitched)
		if err != nil || !reflect.DeepEqual(full, want) {
			t.Fatalf("cut at %d: stitched file replays as %+v, %v", cut, full, err)
		}
		os.Remove(path)
	}
}

// TestWriterFailsClosed: once a window fails to reach the file, the
// writer is dead — every later call returns that first error, so no good
// frame can land behind a half-written window.
func TestWriterFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	w := beginAt(t, path, Options{SyncEvery: 4})
	w.f.Close() // the file goes away underneath the writer
	for i := 0; i < 3; i++ {
		if err := w.Record(i, i, true); err != nil {
			t.Fatalf("buffered record %d: %v", i, err)
		}
	}
	first := w.Record(3, 3, true)
	if first == nil {
		t.Fatal("the window's flush onto a closed file succeeded")
	}
	for name, call := range map[string]func() error{
		"Record":            func() error { return w.Record(4, 4, false) },
		"RecordTier":        func() error { return w.RecordTier(4, 4, false) },
		"RecordBatch":       func() error { return w.RecordBatch(BatchMark{}) },
		"RecordBatchCommit": func() error { return w.RecordBatchCommit(BatchCommit{}) },
		"Sync":              w.Sync,
		"Close":             w.Close,
	} {
		if err := call(); err != first {
			t.Errorf("%s after the failed flush = %v, want the first error %v", name, err, first)
		}
	}
	if len(w.buf) != 0 {
		t.Errorf("a dead writer still buffers %d bytes", len(w.buf))
	}
	if got, want := fileSize(t, path), int64(len(buildImage(testManifest(), nil))); got != want {
		t.Errorf("file is %d bytes, want the %d written before the failure", got, want)
	}
}

// TestRecordDoesNotAllocate: a verdict costs no allocation once the
// window buffer has grown — a lone one (every call a new row) or one that
// extends the open span (rows of 29, the live-ingest alice-side mean).
func TestRecordDoesNotAllocate(t *testing.T) {
	for _, span := range []int{1, 29} {
		t.Run(fmt.Sprintf("span=%d", span), func(t *testing.T) {
			w := beginAt(t, filepath.Join(t.TempDir(), "run.wal"), Options{SyncEvery: 1 << 30})
			defer w.Close()
			i := 0
			record := func() {
				if err := w.Record(i/span, i, i%2 == 0); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for i < 2*flushBytes/4 { // grow the buffers through their first flushes
				record()
			}
			if allocs := testing.AllocsPerRun(10000, record); allocs != 0 {
				t.Errorf("Record allocates %.1f times per call, want 0", allocs)
			}
			if span > 1 && w.spanN == 0 {
				t.Error("no span is open")
			}
		})
	}
}

// BenchmarkWriterRecord is the journal's cost per purchased verdict at
// the default cadence and at the live-dataset benchmark's, a verdict a
// row, and at the live-ingest cadence with the alice-side mean span of 29
// verdicts a row.
func BenchmarkWriterRecord(b *testing.B) {
	for _, c := range []struct{ syncEvery, span int }{{64, 1}, {4096, 1}, {4096, 29}} {
		name := fmt.Sprintf("sync=%d", c.syncEvery)
		if c.span > 1 {
			name = fmt.Sprintf("span=%d", c.span)
		}
		b.Run(name, func(b *testing.B) {
			w := beginAt(b, filepath.Join(b.TempDir(), "run.wal"), Options{SyncEvery: c.syncEvery})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Record(i/c.span, i+1, i%3 == 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/record")
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
