package journal

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenFormat pins the v1 binary layout — magic, version, frame
// framing, manifest field order, verdict encoding — to a golden hex dump,
// so any byte-level drift (which would silently orphan every journal
// written by released builds) breaks CI instead. Regenerate deliberately,
// with a version bump, via
// PPRL_UPDATE_GOLDEN=1 go test ./internal/journal -run TestGoldenFormat.
func TestGoldenFormat(t *testing.T) {
	var m Manifest
	for i := range m.ConfigDigest {
		m.ConfigDigest[i] = byte(i)
		m.InputsDigest[i] = byte(255 - i)
	}
	m.TotalPairs = 1_000_000
	m.UnknownPairs = 31_337
	m.Allowance = 15_000
	m.Seed = 42
	m.Heuristic = "minAvgFirst"
	verdicts := []Verdict{
		{I: 0, J: 0, Matched: true},
		{I: 7, J: 4095, Matched: false},
		{I: 4294967295, J: 1, Matched: true},
	}

	path := filepath.Join(t.TempDir(), "golden.wal")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin(m); err != nil {
		t.Fatal(err)
	}
	for _, v := range verdicts {
		if err := w.Record(int(v.I), int(v.J), v.Matched); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := hexDump(raw)

	goldenPath := filepath.Join("testdata", "golden_v1.hex")
	if os.Getenv("PPRL_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated — this is a format change; bump formatVersion if released journals exist")
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("journal v1 binary format drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The golden bytes must also replay: a reader regression that still
	// round-trips its own writes would pass the dump comparison alone.
	goldenBytes, err := hex.DecodeString(strings.Join(strings.Fields(string(want)), ""))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := parse(goldenBytes)
	if err != nil {
		t.Fatalf("golden journal does not replay: %v", err)
	}
	if rec.Manifest != m {
		t.Errorf("golden manifest decoded as %+v", rec.Manifest)
	}
	if len(rec.Verdicts) != len(verdicts) {
		t.Fatalf("golden journal replays %d verdicts, want %d", len(rec.Verdicts), len(verdicts))
	}
	for i, v := range verdicts {
		if rec.Verdicts[i] != v {
			t.Errorf("golden verdict %d decoded as %+v, want %+v", i, rec.Verdicts[i], v)
		}
	}
}

// hexDump renders bytes as 32-hex-digit lines, diff-friendly.
func hexDump(b []byte) string {
	s := hex.EncodeToString(b)
	var sb strings.Builder
	for len(s) > 32 {
		sb.WriteString(s[:32])
		sb.WriteByte('\n')
		s = s[32:]
	}
	sb.WriteString(s)
	sb.WriteByte('\n')
	return sb.String()
}
