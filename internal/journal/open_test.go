package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openManifest() Manifest {
	return Manifest{Allowance: 10, Heuristic: "minAvgFirst", TotalPairs: 100, UnknownPairs: 40}
}

// TestOpenCreatesFresh: no file → a fresh journal, not resumed.
func TestOpenCreatesFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Recovered() != nil {
		t.Error("fresh journal reported as resumed")
	}
	if _, err := w.Begin(openManifest()); err != nil {
		t.Fatal(err)
	}
	if err := w.Record(1, 2, true); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenResumesExisting: a closed journal reopens as resumed, and
// Begin replays the recorded verdicts.
func TestOpenResumesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin(openManifest()); err != nil {
		t.Fatal(err)
	}
	if err := w.Record(3, 4, false); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Recovered() == nil {
		t.Fatal("existing journal not resumed")
	}
	verdicts, err := w2.Begin(openManifest())
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 1 || verdicts[0] != (Verdict{I: 3, J: 4, Matched: false}) {
		t.Errorf("replayed verdicts = %v", verdicts)
	}
}

// TestOpenRecreatesManifestlessFile: a journal whose process died before
// the manifest became durable holds nothing; Open starts over instead of
// refusing forever.
func TestOpenRecreatesManifestlessFile(t *testing.T) {
	for name, contents := range map[string][]byte{
		"empty":       {},
		"torn-magic":  magic[:5],
		"header-only": append(append([]byte{}, magic[:]...), 1, 0),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.wal")
			if err := os.WriteFile(path, contents, 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := Open(path, Options{})
			if err != nil {
				t.Fatalf("Open should recreate a manifest-less journal: %v", err)
			}
			defer w.Close()
			if w.Recovered() != nil {
				t.Error("manifest-less journal reported as resumed")
			}
			if _, err := w.Begin(openManifest()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOpenRefusesForeignFile: a file that is not a torn pprl journal is
// never deleted or overwritten.
func TestOpenRefusesForeignFile(t *testing.T) {
	for name, contents := range map[string][]byte{
		"short-foreign": []byte("hi"),
		"long-foreign":  bytes.Repeat([]byte("x"), 64),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.wal")
			if err := os.WriteFile(path, contents, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(path, Options{}); err == nil {
				t.Fatal("Open accepted a foreign file")
			}
			got, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(got, contents) {
				t.Fatalf("foreign file was modified: %v", err)
			}
		})
	}
}

// TestResumeStillRefusesManifestless: the explicit-resume path keeps its
// strict behavior; only Open downgrades the missing manifest to a fresh
// start.
func TestResumeStillRefusesManifestless(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	hdr := append(append([]byte{}, magic[:]...), 1, 0)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Resume(path, Options{})
	if !errors.Is(err, ErrNoManifest) {
		t.Fatalf("Resume returned %v, want ErrNoManifest", err)
	}
}
