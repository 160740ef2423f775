package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pprl"
	"pprl/internal/anonymize"
)

// writeView anonymizes a fresh sample and writes its view file.
func writeView(t *testing.T, dir, name string, seed int64, k int) string {
	t.Helper()
	schema := pprl.AdultSchema()
	d := pprl.GenerateAdult(schema, 100, seed)
	qids, err := schema.Resolve(pprl.DefaultAdultQIDs())
	if err != nil {
		t.Fatal(err)
	}
	view, err := pprl.NewMaxEntropy().Anonymize(d, qids, k)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := anonymize.WriteView(f, schema, view); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBlock(t *testing.T) {
	dir := t.TempDir()
	a := writeView(t, dir, "a.view", 11, 8)
	b := writeView(t, dir, "b.view", 12, 4)
	var buf bytes.Buffer
	if err := run(&buf, "", a, b, 0.05); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "pairs: 10000 total") {
		t.Errorf("output = %q", out)
	}
	if !strings.Contains(out, "blocking efficiency:") {
		t.Error("missing efficiency line")
	}
	if !strings.Contains(out, "k=8") || !strings.Contains(out, "k=4") {
		t.Error("missing per-view metadata")
	}
	if !strings.Contains(out, "% pruned)") {
		t.Errorf("output missing the index's pruning stats: %q", out)
	}
}

func TestRunBlockErrors(t *testing.T) {
	dir := t.TempDir()
	a := writeView(t, dir, "a.view", 13, 8)
	if err := run(nil, "", "", a, 0.05); err == nil {
		t.Error("missing -a should fail")
	}
	if err := run(nil, "", a, "/nonexistent.view", 0.05); err == nil {
		t.Error("missing file should fail")
	}
	bad := filepath.Join(dir, "bad.view")
	if err := os.WriteFile(bad, []byte("not a view\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(nil, "", a, bad, 0.05); err == nil {
		t.Error("malformed view should fail")
	}
}
