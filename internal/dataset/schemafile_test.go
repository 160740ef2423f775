package dataset

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSchemaSaveLoadRoundTrip(t *testing.T) {
	s := testSchema(t)
	dir := t.TempDir()
	if err := SaveSchema(dir, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSchema(filepath.Join(dir, SchemaManifest))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("loaded %d attributes, want %d", got.Len(), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		want, have := s.Attr(i), got.Attr(i)
		if want.Name != have.Name || want.Kind != have.Kind {
			t.Errorf("attr %d: %s/%v vs %s/%v", i, have.Name, have.Kind, want.Name, want.Kind)
		}
		if want.Kind == Categorical {
			if have.Hierarchy.NumLeaves() != want.Hierarchy.NumLeaves() ||
				have.Hierarchy.Height() != want.Hierarchy.Height() {
				t.Errorf("attr %s: hierarchy shape changed", want.Name)
			}
			for j, leaf := range want.Hierarchy.Leaves() {
				if have.Hierarchy.Leaf(j).Value != leaf.Value {
					t.Errorf("attr %s leaf %d: %q vs %q", want.Name, j, have.Hierarchy.Leaf(j).Value, leaf.Value)
				}
			}
			continue
		}
		if have.Intervals.Min() != want.Intervals.Min() ||
			have.Intervals.Max() != want.Intervals.Max() ||
			have.Intervals.Branch() != want.Intervals.Branch() ||
			have.Intervals.Depth() != want.Intervals.Depth() {
			t.Errorf("attr %s: interval hierarchy changed", want.Name)
		}
	}
}

func TestLoadSchemaErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := LoadSchema(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing manifest should fail")
	}
	cases := []struct{ name, content string }{
		{"bad kind", "nominal edu edu.vgh\n"},
		{"categorical arity", "categorical edu\n"},
		{"missing vgh", "categorical edu nothere.vgh\n"},
		{"continuous arity", "continuous age 1 2 3\n"},
		{"continuous parse", "continuous age one 2 3 4\n"},
		{"continuous invalid", "continuous age 10 5 2 3\n"},
		{"empty", "# nothing\n"},
	}
	for i, c := range cases {
		path := write("m"+string(rune('a'+i))+".txt", c.content)
		if _, err := LoadSchema(path); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Bad VGH content.
	write("edu.vgh", "  indented-root\n")
	path := write("badvgh.txt", "categorical edu edu.vgh\n")
	if _, err := LoadSchema(path); err == nil {
		t.Error("invalid VGH file should fail")
	}
}

// TestLoadSchemaRefusesNonFiniteBounds: a continuous attribute's min and
// max are parsed by the same strconv.ParseFloat that reads NaN and ±Inf;
// the manifest is refused with its line and the attribute named.
func TestLoadSchemaRefusesNonFiniteBounds(t *testing.T) {
	dir := t.TempDir()
	for i, c := range []struct {
		min, max string
		ok       bool
	}{
		{"NaN", "90", false}, {"17", "NaN", false}, {"-Inf", "90", false}, {"17", "+Inf", false},
		{"17", "Infinity", false}, {"inf", "inf", false}, {"17", "1e999", false},
		{"17", "90", true}, {"-1.5e1", "9e1", true},
	} {
		path := filepath.Join(dir, fmt.Sprintf("m%d.txt", i))
		manifest := fmt.Sprintf("# bounds\ncontinuous age %s %s 2 3\n", c.min, c.max)
		if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSchema(path)
		switch {
		case c.ok && err != nil:
			t.Errorf("bounds [%s, %s]: refused: %v", c.min, c.max, err)
		case !c.ok && (err == nil || !strings.Contains(err.Error(), ":2:") || !strings.Contains(err.Error(), `"age"`)):
			t.Errorf("bounds [%s, %s]: error %v, want a refusal naming line 2 and attribute \"age\"", c.min, c.max, err)
		}
	}
}

func TestLoadSchemaCommentsAndOrder(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "color.vgh"), []byte("ANY\n  red\n  blue\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := "# test\n\ncontinuous weight 0 128 2 4\ncategorical color color.vgh\n"
	path := filepath.Join(dir, "schema.txt")
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSchema(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Attr(0).Name != "weight" || s.Attr(1).Name != "color" {
		t.Fatalf("attribute order wrong: %v", s.Names())
	}
	if s.Attr(0).Intervals.LeafWidth() != 8 {
		t.Errorf("leaf width = %v", s.Attr(0).Intervals.LeafWidth())
	}
}
