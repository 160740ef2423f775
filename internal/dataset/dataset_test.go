package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pprl/internal/vgh"
)

func testSchema(t testing.TB) *Schema {
	t.Helper()
	edu := vgh.MustParse("education", `ANY
  Secondary
    9th
    10th
  University
    Bachelors
    Masters
`)
	hours := vgh.MustIntervalHierarchy("hours", 1, 99, 7, 2)
	return MustSchema(CatAttr(edu), NumAttr(hours))
}

func rec(t testing.TB, s *Schema, id int, edu string, hours float64) Record {
	t.Helper()
	return Record{
		EntityID: id,
		Cells:    []Cell{CatCell(s.Attr(0).Hierarchy, edu), NumCell(hours)},
	}
}

func TestSchemaValidation(t *testing.T) {
	edu := vgh.Flat("edu", "ANY", "a", "b")
	hours := vgh.MustIntervalHierarchy("hours", 0, 10, 2, 1)
	if _, err := NewSchema(CatAttr(edu), CatAttr(edu)); err == nil {
		t.Error("duplicate names should fail")
	}
	if _, err := NewSchema(Attribute{Name: "x", Kind: Categorical}); err == nil {
		t.Error("categorical without hierarchy should fail")
	}
	if _, err := NewSchema(Attribute{Name: "x", Kind: Continuous}); err == nil {
		t.Error("continuous without intervals should fail")
	}
	if _, err := NewSchema(Attribute{Name: "", Kind: Categorical, Hierarchy: edu}); err == nil {
		t.Error("empty name should fail")
	}
	s, err := NewSchema(CatAttr(edu), NumAttr(hours))
	if err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	if i, ok := s.Index("hours"); !ok || i != 1 {
		t.Errorf("Index(hours) = %d,%v", i, ok)
	}
	if _, ok := s.Index("missing"); ok {
		t.Error("Index should miss unknown attributes")
	}
	idx, err := s.Resolve([]string{"hours", "edu"})
	if err != nil || idx[0] != 1 || idx[1] != 0 {
		t.Errorf("Resolve = %v, %v", idx, err)
	}
	if _, err := s.Resolve([]string{"nope"}); err == nil {
		t.Error("Resolve of unknown name should fail")
	}
}

func TestAppendValidation(t *testing.T) {
	s := testSchema(t)
	d := New(s)
	if err := d.Append(Record{Cells: []Cell{NumCell(1)}}); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := d.Append(Record{Cells: []Cell{NumCell(1), NumCell(2)}}); err == nil {
		t.Error("continuous cell in categorical slot should fail")
	}
	internal := s.Attr(0).Hierarchy.MustLookup("University")
	if err := d.Append(Record{Cells: []Cell{{Node: internal}, NumCell(2)}}); err == nil {
		t.Error("internal node as cell should fail")
	}
	other := vgh.Flat("other", "ANY", "Masters")
	if err := d.Append(Record{Cells: []Cell{{Node: other.MustLookup("Masters")}, NumCell(2)}}); err == nil {
		t.Error("leaf from a foreign hierarchy should fail")
	}
	if err := d.Append(rec(t, s, 1, "Masters", 36)); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}

// TestAppendRefusesNonFinite: a continuous cell built in code, not read
// from CSV, is held to the reader's rule — NaN and ±Inf are refused with
// parseFinite's wording and the attribute named, and nothing is appended.
func TestAppendRefusesNonFinite(t *testing.T) {
	s := testSchema(t)
	d := New(s)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := d.Append(rec(t, s, 1, "Masters", v))
		if err == nil || !strings.Contains(err.Error(), "is not a finite number") || !strings.Contains(err.Error(), `"hours"`) {
			t.Errorf("hours %v: error %v, want a refusal naming attribute \"hours\"", v, err)
		}
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d after refused appends, want 0", d.Len())
	}
	if err := d.Append(rec(t, s, 1, "Masters", math.MaxFloat64)); err != nil {
		t.Errorf("largest finite value refused: %v", err)
	}
}

func TestCellValue(t *testing.T) {
	s := testSchema(t)
	r := rec(t, s, 7, "Masters", 36)
	v0 := r.Value(0)
	if !v0.IsCategorical() || v0.Node.Value != "Masters" {
		t.Errorf("Value(0) = %v", v0)
	}
	v1 := r.Value(1)
	if v1.IsCategorical() || !v1.Iv.IsPoint() || v1.Iv.Lo != 36 {
		t.Errorf("Value(1) = %v", v1)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := testSchema(t)
	d := New(s)
	d.MustAppend(rec(t, s, 0, "Masters", 35))
	d.MustAppend(rec(t, s, 1, "9th", 28.5))
	r2 := rec(t, s, 2, "Bachelors", 40)
	r2.Class = ">50K"
	d.MustAppend(r2)

	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(s, &buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round trip Len = %d, want %d", got.Len(), d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		want, have := d.Record(i), got.Record(i)
		if want.EntityID != have.EntityID || want.Class != have.Class {
			t.Errorf("record %d meta: got %+v want %+v", i, have, want)
		}
		for j := range want.Cells {
			if want.Cells[j] != have.Cells[j] {
				t.Errorf("record %d cell %d: got %v want %v", i, j, have.Cells[j], want.Cells[j])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := testSchema(t)
	cases := []struct{ name, csv string }{
		{"unknown column", "education,hours,bogus\nMasters,35,x\n"},
		{"missing column", "education\nMasters\n"},
		{"bad number", "education,hours\nMasters,abc\n"},
		{"unknown leaf", "education,hours\nPhD,35\n"},
		{"internal node", "education,hours\nUniversity,35\n"},
		{"bad entity", "entity_id,education,hours\nxx,Masters,35\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(s, strings.NewReader(c.csv)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestReadCSVColumnOrderAndDefaults(t *testing.T) {
	s := testSchema(t)
	in := "hours,education\n35,Masters\n40,9th\n"
	d, err := ReadCSV(s, strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Record(0).Cells[0].Node.Value != "Masters" || d.Record(0).Cells[1].Num != 35 {
		t.Errorf("column reordering failed: %+v", d.Record(0))
	}
	if d.Record(0).EntityID != 0 || d.Record(1).EntityID != 1 {
		t.Errorf("default entity IDs should be sequential: %d, %d", d.Record(0).EntityID, d.Record(1).EntityID)
	}
}

func TestReadCSVDropMissing(t *testing.T) {
	s := testSchema(t)
	in := "education,hours\nMasters,35\n?,40\n9th,?\nBachelors,28\n"
	d, dropped, err := ReadCSVDropMissing(s, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	if d.Len() != 2 {
		t.Errorf("kept %d rows, want 2", d.Len())
	}
	if d.Record(0).Cells[0].Node.Value != "Masters" || d.Record(1).Cells[0].Node.Value != "Bachelors" {
		t.Errorf("wrong rows kept")
	}
	// Plain ReadCSV still rejects the marker.
	if _, err := ReadCSV(s, strings.NewReader(in)); err == nil {
		t.Error("ReadCSV should reject '?' values")
	}
}

func TestSplitOverlap(t *testing.T) {
	s := testSchema(t)
	d := New(s)
	for i := 0; i < 99; i++ {
		edu := "Masters"
		if i%2 == 0 {
			edu = "9th"
		}
		d.MustAppend(rec(t, s, i, edu, float64(1+i%90)))
	}
	d1, d2 := SplitOverlap(d, rand.New(rand.NewSource(1)))
	if d1.Len() != 66 || d2.Len() != 66 {
		t.Fatalf("split sizes = %d, %d, want 66, 66", d1.Len(), d2.Len())
	}
	ids1 := map[int]bool{}
	for _, r := range d1.Records() {
		ids1[r.EntityID] = true
	}
	shared := 0
	for _, r := range d2.Records() {
		if ids1[r.EntityID] {
			shared++
		}
	}
	if shared != 33 {
		t.Errorf("shared entities = %d, want 33 (the d3 partition)", shared)
	}
	// Original dataset untouched (split clones before shuffling).
	for i := 0; i < d.Len(); i++ {
		if d.Record(i).EntityID != i {
			t.Fatalf("SplitOverlap mutated its input at %d", i)
		}
	}
}

func TestConcatSchemaMismatch(t *testing.T) {
	s1 := testSchema(t)
	s2 := testSchema(t)
	a := New(s1)
	b := New(s2)
	if _, err := a.Concat(b); err == nil {
		t.Error("Concat across different schema instances should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := testSchema(t)
	d := New(s)
	d.MustAppend(rec(t, s, 0, "Masters", 35))
	c := d.Clone()
	c.MustAppend(rec(t, s, 1, "9th", 20))
	if d.Len() != 1 || c.Len() != 2 {
		t.Errorf("Clone not independent: %d, %d", d.Len(), c.Len())
	}
}
