package journal

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// goldenManifest is the manifest both golden files carry.
func goldenManifest() Manifest {
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
	return m
}

// readGolden decodes a hex dump from testdata.
func readGolden(t *testing.T, name string) (dump string, raw []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	raw, err = hex.DecodeString(strings.Join(strings.Fields(string(want)), ""))
	if err != nil {
		t.Fatal(err)
	}
	return string(want), raw
}

// goldenV2Events is what golden_v2.hex, the v2 writer's file, holds: a
// span of nine (its bitmap takes two bytes), a lone verdict, a tier span
// of three, then a batch frame holding a span of two.
func goldenV2Events() []event {
	var events []event
	for x, j := range []uint32{0, 4095, 1, 2, 3, 5, 8, 13, 21} {
		events = append(events, event{kind: recVerdict, v: Verdict{I: 7, J: j, Matched: x%3 == 0 || x == 8}})
	}
	events = append(events, event{kind: recVerdict, v: Verdict{I: 4294967295, J: 1, Matched: true}})
	for _, j := range []uint32{10, 11, 12} {
		events = append(events, event{kind: recTierVerdict, v: Verdict{I: 3, J: j}})
	}
	return append(events,
		event{kind: recBatch, mark: goldenMark},
		event{kind: recVerdict, v: Verdict{I: 5, J: 6, Matched: true}},
		event{kind: recVerdict, v: Verdict{I: 5, J: 7}},
		event{kind: recBatchCommit, commit: BatchCommit{Batch: 0, Deltas: 1, Spent: 2}})
}

var goldenMark = BatchMark{Batch: 0, Side: 1, Records: 2, Digest: [32]byte{0: 0xaa, 31: 0x55}}

// goldenLists is what a golden file's events replay to: the purchased and
// the tier verdicts, in order.
func goldenLists(events []event) (bought, tier []Verdict) {
	for _, e := range events {
		switch e.kind {
		case recVerdict:
			bought = append(bought, e.v)
		case recTierVerdict:
			tier = append(tier, e.v)
		}
	}
	return bought, tier
}

// TestGoldenFormat pins the v3 binary layout — magic, version, frame
// framing, manifest field order, the lone verdict record, the purchased and
// tier row and column span records with their verdict bitmaps, batch mark
// and commit — to a golden hex dump, so any byte-level drift (which would
// silently orphan every journal written by released builds) breaks CI
// instead. Regenerate deliberately, with a version bump, via
// PPRL_UPDATE_GOLDEN=1 go test ./internal/journal -run TestGoldenFormat.
func TestGoldenFormat(t *testing.T) {
	m := goldenManifest()
	// The v2 file's events, a tier column span of two among its free
	// labels, and in the batch frame a column span of three after the row
	// span: (8,7) shares j with the row's last verdict, but a row span
	// closes at the first pair off its row, so the column starts there.
	v2 := goldenV2Events()
	events := slices.Concat(v2[:13],
		[]event{{kind: recTierVerdict, v: Verdict{I: 30, J: 4}}, {kind: recTierVerdict, v: Verdict{I: 31, J: 4}}},
		v2[13:16],
		[]event{
			{kind: recVerdict, v: Verdict{I: 8, J: 7}},
			{kind: recVerdict, v: Verdict{I: 9, J: 7, Matched: true}},
			{kind: recVerdict, v: Verdict{I: 4294967295, J: 7}},
		},
		v2[16:])

	path := filepath.Join(t.TempDir(), "golden.wal")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Begin(m); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := e.apply(w); err != nil {
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

	if os.Getenv("PPRL_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(filepath.Join("testdata", "golden_v3.hex"), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated — this is a format change; bump formatVersion if released journals exist")
	}
	want, goldenBytes := readGolden(t, "golden_v3.hex")
	if got != want {
		t.Errorf("journal v3 binary format drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Nine frames for twenty-two records: the manifest, a span, a lone
	// verdict, a tier span, a tier column span, the mark, a span, a column
	// span, the commit.
	frames := 0
	for off := int64(headerLen); off < int64(len(raw)); frames++ {
		_, next, ok := nextFrame(raw, off)
		if !ok {
			t.Fatalf("frame %d at offset %d does not decode", frames, off)
		}
		off = next
	}
	if frames != 9 {
		t.Errorf("golden journal has %d frames, want 9", frames)
	}

	// The golden bytes must also replay: a reader regression that still
	// round-trips its own writes would pass the dump comparison alone.
	rec, err := parse(goldenBytes)
	if err != nil {
		t.Fatalf("golden journal does not replay: %v", err)
	}
	if rec.Manifest != m {
		t.Errorf("golden manifest decoded as %+v", rec.Manifest)
	}
	// A v2 reader has no column span: the same bytes under a v2 header are
	// refused, not half read.
	asV2 := slices.Clone(goldenBytes)
	asV2[8] = 2
	if _, err := parse(asV2); err == nil || !strings.Contains(err.Error(), "span record type 9") {
		t.Errorf("the v3 golden bytes under a v2 header parse (%v); want the column span refused", err)
	}
	bought, tier := goldenLists(events)
	if !reflect.DeepEqual(rec.Verdicts, bought) || !reflect.DeepEqual(rec.TierVerdicts, tier) {
		t.Errorf("golden journal replays %+v / %+v, want %+v / %+v", rec.Verdicts, rec.TierVerdicts, bought, tier)
	}
	if len(rec.Batches) != 1 || rec.Batches[0].Mark != goldenMark || !rec.Batches[0].Committed ||
		!reflect.DeepEqual(rec.Batches[0].Verdicts, bought[len(bought)-5:]) {
		t.Errorf("golden batch frame replays as %+v", rec.Batches)
	}
}

// TestGoldenV2StillReads: golden_v2.hex is what the v2 writer made of
// goldenV2Events. This build writes v3, so the file is a read-only
// fixture: it must replay to the same manifest, verdicts and batch frame.
func TestGoldenV2StillReads(t *testing.T) {
	_, raw := readGolden(t, "golden_v2.hex")
	rec, err := parse(raw)
	if err != nil {
		t.Fatalf("golden v2 journal does not replay: %v", err)
	}
	bought, tier := goldenLists(goldenV2Events())
	if rec.Manifest != goldenManifest() || !reflect.DeepEqual(rec.Verdicts, bought) || !reflect.DeepEqual(rec.TierVerdicts, tier) ||
		len(rec.Batches) != 1 || !reflect.DeepEqual(rec.Batches[0].Verdicts, bought[len(bought)-2:]) || rec.TornBytes != 0 {
		t.Errorf("golden v2 journal replays %+v", rec)
	}
}

// TestGoldenV1StillReads: golden_v1.hex is what the v1 writer made of a
// manifest and three verdicts. This build writes v3, so the file is a
// read-only fixture: it must replay to the same manifest and verdicts.
func TestGoldenV1StillReads(t *testing.T) {
	_, raw := readGolden(t, "golden_v1.hex")
	rec, err := parse(raw)
	if err != nil {
		t.Fatalf("golden v1 journal does not replay: %v", err)
	}
	if rec.Manifest != goldenManifest() {
		t.Errorf("golden v1 manifest decoded as %+v", rec.Manifest)
	}
	want := []Verdict{
		{I: 0, J: 0, Matched: true},
		{I: 7, J: 4095, Matched: false},
		{I: 4294967295, J: 1, Matched: true},
	}
	if !reflect.DeepEqual(rec.Verdicts, want) || rec.TornBytes != 0 {
		t.Errorf("golden v1 journal replays %+v (torn %d), want %+v", rec.Verdicts, rec.TornBytes, want)
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
