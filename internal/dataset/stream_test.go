package dataset

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// streamCSV renders n records of the test schema as CSV text.
func streamCSV(n int) string {
	var b strings.Builder
	b.WriteString("entity_id,education,hours,class\n")
	edus := []string{"9th", "10th", "Bachelors", "Masters"}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%s,%d,c%d\n", i, edus[i%len(edus)], 1+i%99, i%2)
	}
	return b.String()
}

// readFile writes content to a file and reads it back through OpenStream
// and ReadAll, the way the service reads a holder's relation.
func readFile(t *testing.T, s *Schema, content string) (*Dataset, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rel.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(s, path, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return st.ReadAll()
}

// TestStreamMatchesReadCSV: ReadAll yields exactly the records ReadCSV
// materializes.
func TestStreamMatchesReadCSV(t *testing.T) {
	s := testSchema(t)
	csv := streamCSV(25)
	want, err := ReadCSV(s, strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	got, err := readFile(t, s, csv)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("read %d records, ReadCSV found %d", got.Len(), want.Len())
	}
	for i, rec := range got.Records() {
		w := want.Record(i)
		if rec.EntityID != w.EntityID || rec.Class != w.Class {
			t.Fatalf("record %d: got %+v, want %+v", i, rec, w)
		}
		for c := range rec.Cells {
			if rec.Cells[c] != w.Cells[c] {
				t.Fatalf("record %d cell %d differs", i, c)
			}
		}
	}
}

// TestOpenStreamFile: a missing file is refused at open; a present one
// reads and closes.
func TestOpenStreamFile(t *testing.T) {
	s := testSchema(t)
	if _, err := OpenStream(s, filepath.Join(t.TempDir(), "absent.csv"), StreamOptions{}); err == nil {
		t.Error("a missing file opened")
	}
	d, err := readFile(t, s, streamCSV(10))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 10 {
		t.Fatalf("read %d records, want 10", d.Len())
	}
}

// TestStreamErrors: header and row errors surface from ReadAll, a row's
// with its number.
func TestStreamErrors(t *testing.T) {
	s := testSchema(t)
	if _, err := readFile(t, s, "education,bogus\n"); err == nil {
		t.Error("unknown header column accepted")
	}
	if _, err := readFile(t, s, "education\n"); err == nil {
		t.Error("missing attribute column accepted")
	}
	if _, err := readFile(t, s, "education,hours\nNotALeaf,5\n"); err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Errorf("bad leaf error = %v, want row-numbered error", err)
	}
}

// TestOpenStreamEdgeCases pins ReadAll at the input boundaries a live
// ingest path actually hits: an empty file, a header-only file, and a
// truncated trailing row (a partial append caught mid-write).
func TestOpenStreamEdgeCases(t *testing.T) {
	s := testSchema(t)
	for _, c := range []struct {
		name, content string
		want          string // a substring of the error; "" reads zero records
	}{
		{"empty file: no header to resolve", "", "header"},
		{"header only: a valid, zero-record relation", "education,hours\n", ""},
		{"truncated trailing row", "education,hours\nBachelors,5\nMasters\n", "row 3"},
		{"truncated row missing its entity_id", "education,hours,entity_id\nBachelors,5,7\nMasters,3\n", "row 3"},
	} {
		d, err := readFile(t, s, c.content)
		switch {
		case c.want == "" && (err != nil || d.Len() != 0):
			t.Errorf("%s: %v, err %v; want an empty relation", c.name, d, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

// TestNonFiniteCellsRefused: strconv.ParseFloat also reads NaN and ±Inf in
// several spellings; a continuous cell holding one is refused with its row
// and attribute named, through OpenStream and ReadCSV alike, and the finite
// neighbours of those spellings still parse.
func TestNonFiniteCellsRefused(t *testing.T) {
	s := testSchema(t)
	for _, c := range []struct {
		cell string
		ok   bool
	}{
		{"NaN", false}, {"nan", false}, {"Inf", false}, {"+Inf", false}, {"-Inf", false},
		{"inf", false}, {"Infinity", false}, {"-infinity", false}, {"1e999", false},
		{"40", true}, {"-0", true}, {"4e1", true}, {"0x1p5", true},
	} {
		csv := "education,hours\n9th,12\nMasters," + c.cell + "\n"
		_, serr := readFile(t, s, csv)
		_, rerr := ReadCSV(s, strings.NewReader(csv))
		for _, err := range []error{serr, rerr} {
			switch {
			case c.ok && err != nil:
				t.Errorf("cell %q: refused: %v", c.cell, err)
			case !c.ok && (err == nil || !strings.Contains(err.Error(), "row 3") || !strings.Contains(err.Error(), `"hours"`)):
				t.Errorf("cell %q: error %v, want a refusal naming row 3 and attribute \"hours\"", c.cell, err)
			}
		}
	}
}
