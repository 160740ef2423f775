package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pprl"
	"pprl/internal/anonymize"
	"pprl/internal/dpblock"
	"pprl/internal/index"
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
	return writeFile(t, dir, name, view)
}

// writeDPView bins a fresh sample, publishes and pads its DP release —
// what a DP holder sends — and writes its view file.
func writeDPView(t *testing.T, dir, name string, seed int64) (string, *anonymize.Result) {
	t.Helper()
	schema := pprl.AdultSchema()
	d := pprl.GenerateAdult(schema, 100, seed)
	qids, err := schema.Resolve(pprl.DefaultAdultQIDs())
	if err != nil {
		t.Fatal(err)
	}
	b, err := dpblock.New(dpblock.Params{Epsilon: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	view, err := b.Anonymize(d, qids, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dpblock.Publish(view, b.Params()); err != nil {
		t.Fatal(err)
	}
	if _, err := dpblock.Pad(view); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, dir, name, view), view
}

// writeFile writes view as the view file dir/name.
func writeFile(t *testing.T, dir, name string, view *anonymize.Result) string {
	t.Helper()
	schema := pprl.AdultSchema()
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

// TestRunBlockDPViews: two padded DP releases are blocked by bin
// intersection, not the slack rule — no pair is matched, the Unknown
// pairs are exactly the intersecting bins' padded pairs — and a DP
// release against a k-anonymous view is refused.
func TestRunBlockDPViews(t *testing.T) {
	dir := t.TempDir()
	a, av := writeDPView(t, dir, "a.view", 21)
	b, bv := writeDPView(t, dir, "b.view", 22)
	var unknown int64
	for ri := range av.Classes {
		for si := range bv.Classes {
			if index.SequencesIntersect(av.Classes[ri].Sequence, bv.Classes[si].Sequence) {
				unknown += int64(av.Classes[ri].Size()) * int64(bv.Classes[si].Size())
			}
		}
	}
	if unknown == 0 {
		t.Fatal("no two bins intersect; the check would be vacuous")
	}
	var buf bytes.Buffer
	if err := run(&buf, "", a, b, 0.05); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"matched by blocking:    0\n",
		fmt.Sprintf("unknown (SMC needed):   %d\n", unknown),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	plain := writeView(t, dir, "plain.view", 23, 4)
	if err := run(&bytes.Buffer{}, "", a, plain, 0.05); err == nil || !strings.Contains(err.Error(), "DP release") {
		t.Errorf("a DP release against a k-anonymous view: err = %v, want a refusal", err)
	}
}
