package journal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testManifest returns a manifest with distinguishable field values.
func testManifest() Manifest {
	var m Manifest
	for i := range m.ConfigDigest {
		m.ConfigDigest[i] = byte(i)
		m.InputsDigest[i] = byte(200 - i)
	}
	m.TotalPairs = 9000
	m.UnknownPairs = 420
	m.Allowance = 135
	m.Seed = -7
	m.Heuristic = "minAvgFirst"
	return m
}

// writeRun journals a manifest plus verdicts and closes the file.
func writeRun(t *testing.T, path string, m Manifest, verdicts []Verdict, opts Options) {
	t.Helper()
	w, err := Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prior, err := w.Begin(m); err != nil || prior != nil {
		t.Fatalf("fresh Begin = (%v, %v), want (nil, nil)", prior, err)
	}
	for _, v := range verdicts {
		if err := w.Record(int(v.I), int(v.J), v.Matched); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func someVerdicts(n int) []Verdict {
	out := make([]Verdict, n)
	for i := range out {
		out[i] = Verdict{I: uint32(i * 3), J: uint32(i*5 + 1), Matched: i%3 == 0}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	m := testManifest()
	verdicts := someVerdicts(10)
	writeRun(t, path, m, verdicts, Options{})

	rec, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Manifest != m {
		t.Errorf("manifest round-trip:\ngot  %+v\nwant %+v", rec.Manifest, m)
	}
	if rec.TornBytes != 0 {
		t.Errorf("clean journal reports %d torn bytes", rec.TornBytes)
	}
	if len(rec.Verdicts) != len(verdicts) {
		t.Fatalf("replayed %d verdicts, wrote %d", len(rec.Verdicts), len(verdicts))
	}
	for i, v := range verdicts {
		if rec.Verdicts[i] != v {
			t.Errorf("verdict %d: got %+v, want %+v", i, rec.Verdicts[i], v)
		}
	}
}

func TestResumeAppendsAfterReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	m := testManifest()
	writeRun(t, path, m, someVerdicts(4), Options{SyncEvery: 1})

	w, err := Resume(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prior, err := w.Begin(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 4 {
		t.Fatalf("resumed Begin returned %d verdicts, want 4", len(prior))
	}
	if err := w.Record(99, 100, true); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Verdicts) != 5 {
		t.Fatalf("after resume+append, journal has %d verdicts, want 5", len(rec.Verdicts))
	}
	if got := rec.Verdicts[4]; got != (Verdict{I: 99, J: 100, Matched: true}) {
		t.Errorf("appended verdict = %+v", got)
	}
}

// TestTornTailTruncation cuts a valid journal mid-record at every
// possible tail length and checks that resume recovers the intact prefix
// and physically truncates the torn bytes.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.wal")
	verdicts := someVerdicts(3)
	writeRun(t, ref, testManifest(), verdicts, Options{})
	whole, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := int64(len(whole)) - (verdictPayloadLen + 8) // offset of the final record
	for cut := lastLen + 1; cut < int64(len(whole)); cut++ {
		path := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Resume(path, Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		prior, err := w.Begin(testManifest())
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(prior) != len(verdicts)-1 {
			t.Fatalf("cut at %d: recovered %d verdicts, want %d", cut, len(prior), len(verdicts)-1)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if fi, _ := os.Stat(path); fi.Size() != lastLen {
			t.Fatalf("cut at %d: torn tail not truncated (size %d, want %d)", cut, fi.Size(), lastLen)
		}
		os.Remove(path)
	}
}

// TestCorruptionTruncatesFromFirstBadFrame garbles a mid-file record —
// a lone verdict's, then a span's: everything from the first bad frame on
// is discarded, even later frames that would checksum, and everything
// before it survives.
func TestCorruptionTruncatesFromFirstBadFrame(t *testing.T) {
	// Two lone verdicts, a span of five on row 100, two lone verdicts.
	verdicts := someVerdicts(2)
	for j := uint32(0); j < 5; j++ {
		verdicts = append(verdicts, Verdict{I: 100, J: j, Matched: j == 3})
	}
	verdicts = append(verdicts, someVerdicts(5)[3:]...)
	lone := int64(4 + verdictPayloadLen + 4)
	span := int64(4 + spanPayloadLen(5) + 4)
	for _, c := range []struct {
		name    string
		flip    int64 // bytes before the end of the file
		kept    int   // verdicts that survive
		dropped int64
	}{
		{"lone verdict", 2*lone - 5, 7, 2 * lone},
		{"span count", 2*lone + span - 9, 2, 2*lone + span},
		{"span j", 2*lone + span - 15, 2, 2*lone + span},
		{"span bitmap", 2*lone + 5, 2, 2*lone + span},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.wal")
			writeRun(t, path, testManifest(), verdicts, Options{})
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[int64(len(data))-c.flip] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			rec, err := Replay(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rec.Verdicts, verdicts[:c.kept]) {
				t.Errorf("replay past a corrupt frame: got %+v, want the first %d verdicts", rec.Verdicts, c.kept)
			}
			if rec.TornBytes != c.dropped {
				t.Errorf("TornBytes = %d, want %d", rec.TornBytes, c.dropped)
			}
		})
	}
}

func TestRefusalPaths(t *testing.T) {
	dir := t.TempDir()
	base := testManifest()
	path := filepath.Join(dir, "run.wal")
	writeRun(t, path, base, someVerdicts(2), Options{})

	resumeWith := func(t *testing.T, cur Manifest) error {
		t.Helper()
		w, err := Resume(path, Options{})
		if err != nil {
			return err
		}
		defer w.Close()
		_, err = w.Begin(cur)
		return err
	}

	t.Run("config digest", func(t *testing.T) {
		cur := base
		cur.ConfigDigest[0] ^= 1
		err := resumeWith(t, cur)
		if err == nil || !strings.Contains(err.Error(), "config digest") {
			t.Errorf("err = %v, want config digest refusal", err)
		}
	})
	t.Run("inputs digest", func(t *testing.T) {
		cur := base
		cur.InputsDigest[0] ^= 1
		err := resumeWith(t, cur)
		if err == nil || !strings.Contains(err.Error(), "inputs digest") {
			t.Errorf("err = %v, want inputs digest refusal", err)
		}
	})
	t.Run("heuristic", func(t *testing.T) {
		cur := base
		cur.Heuristic = "maxLast"
		err := resumeWith(t, cur)
		if err == nil || !strings.Contains(err.Error(), "heuristic") {
			t.Errorf("err = %v, want heuristic refusal", err)
		}
	})
	t.Run("allowance", func(t *testing.T) {
		cur := base
		cur.Allowance++
		err := resumeWith(t, cur)
		if err == nil || !strings.Contains(err.Error(), "allowance") {
			t.Errorf("err = %v, want allowance refusal", err)
		}
	})
	t.Run("newer version", func(t *testing.T) {
		vPath := filepath.Join(dir, "v2.wal")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(data[8:10], formatVersion+1)
		if err := os.WriteFile(vPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(vPath, Options{}); !errors.Is(err, ErrNewerVersion) {
			t.Errorf("err = %v, want ErrNewerVersion", err)
		}
	})
	t.Run("not a journal", func(t *testing.T) {
		gPath := filepath.Join(dir, "garbage.wal")
		if err := os.WriteFile(gPath, []byte("definitely not a journal"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(gPath, Options{}); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("err = %v, want bad-magic refusal", err)
		}
	})
	t.Run("torn before manifest", func(t *testing.T) {
		tPath := filepath.Join(dir, "headless.wal")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tPath, data[:headerLen+10], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(tPath, Options{}); err == nil || !strings.Contains(err.Error(), "manifest") {
			t.Errorf("err = %v, want no-manifest refusal", err)
		}
	})
	t.Run("create refuses existing", func(t *testing.T) {
		if _, err := Create(path, Options{}); err == nil || !strings.Contains(err.Error(), "resume") {
			t.Errorf("err = %v, want already-exists refusal pointing at resume", err)
		}
	})
}

func TestSyncEveryBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := Create(path, Options{SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Begin(testManifest()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Record(i, i, false); err != nil {
			t.Fatal(err)
		}
		wantUnsynced := (i + 1) % 4
		if w.unsynced != wantUnsynced {
			t.Fatalf("after record %d: %d unsynced, want %d", i, w.unsynced, wantUnsynced)
		}
	}
}

func TestWriterMisuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Record(1, 2, true); err == nil {
		t.Error("Record before Begin should fail")
	}
	if _, err := w.Begin(testManifest()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin(testManifest()); err == nil {
		t.Error("second Begin should fail")
	}
	if err := w.Record(-1, 2, true); err == nil {
		t.Error("negative index should fail")
	}
}

// TestRecordedCountsSessionWrites: Recorded counts verdicts appended by
// this writer only — replayed verdicts from a resumed journal do not
// inflate it.
func TestRecordedCountsSessionWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	m := testManifest()
	w, err := Create(path, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin(m); err != nil {
		t.Fatal(err)
	}
	if got := w.Recorded(); got != 0 {
		t.Fatalf("fresh writer Recorded() = %d, want 0", got)
	}
	if err := w.Record(1, 2, true); err != nil {
		t.Fatal(err)
	}
	if err := w.RecordTier(3, 4, false); err != nil {
		t.Fatal(err)
	}
	if got := w.Recorded(); got != 2 {
		t.Fatalf("Recorded() = %d after two appends, want 2", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Resume(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Begin(m); err != nil {
		t.Fatal(err)
	}
	if got := r.Recorded(); got != 0 {
		t.Fatalf("resumed writer Recorded() = %d before any append, want 0", got)
	}
	if err := r.Record(5, 6, true); err != nil {
		t.Fatal(err)
	}
	if got := r.Recorded(); got != 1 {
		t.Fatalf("resumed writer Recorded() = %d, want 1", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
