package dataset

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// streamCSV renders n records of the test schema as CSV text.
func streamCSV(n int, withMissing bool) string {
	var b strings.Builder
	b.WriteString("entity_id,education,hours,class\n")
	edus := []string{"9th", "10th", "Bachelors", "Masters"}
	for i := 0; i < n; i++ {
		edu := edus[i%len(edus)]
		if withMissing && i%5 == 3 {
			edu = Missing
		}
		fmt.Fprintf(&b, "%d,%s,%d,c%d\n", i, edu, 1+i%99, i%2)
	}
	return b.String()
}

// TestStreamMatchesReadCSV: draining a stream chunk by chunk yields
// exactly the records ReadCSV materializes, under a chunk size that does
// not divide the record count.
func TestStreamMatchesReadCSV(t *testing.T) {
	s := testSchema(t)
	csv := streamCSV(25, false)
	want, err := ReadCSV(s, strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(s, strings.NewReader(csv), StreamOptions{ChunkRecords: 7})
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	chunks := 0
	for {
		chunk, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) > 7 {
			t.Fatalf("chunk holds %d records, budget is 7", len(chunk))
		}
		chunks++
		got = append(got, append([]Record(nil), chunk...)...)
	}
	if chunks != 4 { // 7+7+7+4
		t.Errorf("drained in %d chunks, want 4", chunks)
	}
	if len(got) != want.Len() {
		t.Fatalf("streamed %d records, ReadCSV found %d", len(got), want.Len())
	}
	for i, rec := range got {
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
	// A drained stream stays drained.
	if _, err := st.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next: %v, want io.EOF", err)
	}
}

// TestStreamReadAllAndDropMissing: ReadAll equals ReadCSVDropMissing,
// including the dropped-row count.
func TestStreamReadAllAndDropMissing(t *testing.T) {
	s := testSchema(t)
	csv := streamCSV(20, true)
	want, wantDropped, err := ReadCSVDropMissing(s, strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(s, strings.NewReader(csv), StreamOptions{ChunkRecords: 3, DropMissing: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || st.Dropped() != wantDropped {
		t.Fatalf("ReadAll: %d records (%d dropped), want %d (%d)", got.Len(), st.Dropped(), want.Len(), wantDropped)
	}
}

// TestOpenStreamFile: the file-backed constructor streams and closes.
func TestOpenStreamFile(t *testing.T) {
	s := testSchema(t)
	path := filepath.Join(t.TempDir(), "rel.csv")
	if err := os.WriteFile(path, []byte(streamCSV(10, false)), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(s, path, StreamOptions{ChunkRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 10 {
		t.Fatalf("streamed %d records, want 10", d.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamErrors: header and row errors surface with row numbers, and
// a failed stream stays failed.
func TestStreamErrors(t *testing.T) {
	s := testSchema(t)
	if _, err := NewStream(s, strings.NewReader("education,bogus\n"), StreamOptions{}); err == nil {
		t.Error("unknown header column accepted")
	}
	if _, err := NewStream(s, strings.NewReader("education\n"), StreamOptions{}); err == nil {
		t.Error("missing attribute column accepted")
	}
	st, err := NewStream(s, strings.NewReader("education,hours\nNotALeaf,5\n"), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Errorf("bad leaf error = %v, want row-numbered error", err)
	}
	if _, err := st.Next(); err == nil || err == io.EOF {
		t.Errorf("stream recovered after error: %v", err)
	}
}

// TestOpenStreamEdgeCases pins the stream's behavior at the input
// boundaries a live ingest path actually hits: empty files, header-only
// files, a chunk boundary landing exactly on EOF, and a truncated
// trailing row (a partial append caught mid-write).
func TestOpenStreamEdgeCases(t *testing.T) {
	s := testSchema(t)
	write := func(content string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "rel.csv")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Empty file: no header to resolve, so OpenStream itself fails (and
	// must not leak the file handle — Close is never reachable).
	if _, err := OpenStream(s, write(""), StreamOptions{}); err == nil || !strings.Contains(err.Error(), "header") {
		t.Errorf("empty file: err = %v, want header error", err)
	}

	// Header-only file: a valid, zero-record relation. The first Next is
	// already EOF and ReadAll materializes an empty dataset.
	st, err := OpenStream(s, write("education,hours\n"), StreamOptions{})
	if err != nil {
		t.Fatalf("header-only file rejected: %v", err)
	}
	if _, err := st.Next(); err != io.EOF {
		t.Errorf("header-only Next: %v, want io.EOF", err)
	}
	if st.Dropped() != 0 {
		t.Errorf("header-only stream dropped %d rows", st.Dropped())
	}
	st.Close()
	st, err = OpenStream(s, write("education,hours\n"), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.ReadAll()
	if err != nil || d.Len() != 0 {
		t.Errorf("header-only ReadAll: %d records, err %v", d.Len(), err)
	}
	st.Close()

	// Record count an exact multiple of the chunk size: every chunk is
	// full and EOF arrives on its own call, not inside a short chunk.
	st, err = OpenStream(s, write(streamCSV(12, false)), StreamOptions{ChunkRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 3; i++ {
		chunk, err := st.Next()
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if len(chunk) != 4 {
			t.Fatalf("chunk %d holds %d records, want 4", i, len(chunk))
		}
	}
	if _, err := st.Next(); err != io.EOF {
		t.Errorf("chunk-aligned EOF: %v, want io.EOF", err)
	}

	// Truncated trailing row: fewer columns than the schema needs must be
	// a row-numbered error, not a panic, and the stream stays failed.
	st, err = OpenStream(s, write("education,hours\nBachelors,5\nMasters\n"), StreamOptions{ChunkRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(); err == nil || !strings.Contains(err.Error(), "row 3") {
		t.Errorf("truncated row: err = %v, want row-numbered error", err)
	}
	if _, err := st.Next(); err == nil || err == io.EOF {
		t.Errorf("stream recovered after truncated row: %v", err)
	}

	// Same truncation with an entity_id header: the id column itself is
	// the one missing from the short row.
	st2, err := OpenStream(s, write("education,hours,entity_id\nBachelors,5,7\nMasters,3\n"), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Next(); err == nil || !strings.Contains(err.Error(), "row 3") {
		t.Errorf("missing entity_id cell: err = %v, want row-numbered error", err)
	}
}

// TestNonFiniteCellsRefused: strconv.ParseFloat also reads NaN and ±Inf in
// several spellings; a continuous cell holding one is refused with its row
// and attribute named, for the stream and for ReadCSV alike, and the finite
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
		st, err := NewStream(s, strings.NewReader(csv), StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, serr := st.ReadAll()
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
