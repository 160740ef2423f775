package journal

import (
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// legacyV1 names every v1 journal committed in the tree, and the v2 golden
// file: files earlier builds wrote, which this build must go on reading and
// resuming.
var legacyV1 = []string{
	"testdata/golden_v1.hex",
	"testdata/golden_v2.hex",
	"../core/testdata/dense_era.hex",
	"../core/testdata/legacy_dp.hex",
	"../service/testdata/legacy-*/datasets/*/ingest.wal",
	"../service/testdata/legacy-*/state/datasets/*/ingest.wal",
	"../incremental/testdata/*/ingest.wal",
}

// TestLegacyV1FixturesResume replays every committed v1 journal (and the v2
// golden file) and resumes a copy of it: the resumed file's header says 3
// before anything is appended, it replays to what the old file did, and
// what this build appends — a span, a lone verdict, a column span, a tier
// span — lands behind it, inside the open batch frame if there is one.
func TestLegacyV1FixturesResume(t *testing.T) {
	var paths []string
	for _, pattern := range legacyV1 {
		matches, err := filepath.Glob(pattern)
		if err != nil || len(matches) == 0 {
			t.Fatalf("%s matches no fixture (%v)", pattern, err)
		}
		paths = append(paths, matches...)
	}
	if len(paths) < 9 {
		t.Fatalf("%d v1 and v2 fixtures found, want the 9 committed ones: %v", len(paths), paths)
	}
	for _, src := range paths {
		name := strings.TrimPrefix(src, "../")
		if name == src {
			name = "journal/" + src
		}
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasSuffix(src, ".hex") {
				if raw, err = hex.DecodeString(strings.Join(strings.Fields(string(raw)), "")); err != nil {
					t.Fatal(err)
				}
			}
			if v := binary.LittleEndian.Uint16(raw[8:10]); v >= formatVersion {
				t.Fatalf("fixture is v%d, not an older journal", v)
			}
			path := filepath.Join(t.TempDir(), "v1.wal")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			before, err := Replay(path)
			if err != nil {
				t.Fatal(err)
			}

			w, err := Resume(path, Options{SyncEvery: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			header, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint16(header[8:10]); v != formatVersion {
				t.Fatalf("after Resume the header says v%d, want v%d", v, formatVersion)
			}
			upgraded, err := Replay(path)
			if err != nil {
				t.Fatal(err)
			}
			before.TornBytes = 0 // Resume truncated the torn tail
			if !reflect.DeepEqual(upgraded, before) {
				t.Fatalf("the upgraded file replays as %+v, the old file as %+v", upgraded, before)
			}

			prior, err := w.Begin(before.Manifest)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(prior, before.Verdicts) {
				t.Fatalf("Begin handed back %d verdicts, the file holds %d", len(prior), len(before.Verdicts))
			}
			added := []event{
				{kind: recVerdict, v: Verdict{I: 1 << 30, J: 1, Matched: true}},
				{kind: recVerdict, v: Verdict{I: 1 << 30, J: 2}},
				{kind: recVerdict, v: Verdict{I: 1 << 30, J: 3, Matched: true}},
				{kind: recVerdict, v: Verdict{I: 1<<30 + 1, J: 0}},
				{kind: recVerdict, v: Verdict{I: 1<<30 + 2, J: 0, Matched: true}},
				{kind: recTierVerdict, v: Verdict{I: 1 << 30, J: 4}},
				{kind: recTierVerdict, v: Verdict{I: 1 << 30, J: 5}},
			}
			for _, e := range added {
				if err := e.apply(w); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			after, err := Replay(path)
			if err != nil {
				t.Fatal(err)
			}
			want := upgraded
			for _, e := range added {
				if e.kind == recVerdict {
					want.Verdicts = append(want.Verdicts, e.v)
				} else {
					want.TierVerdicts = append(want.TierVerdicts, e.v)
				}
			}
			if n := len(want.Batches); n > 0 && !want.Batches[n-1].Committed {
				tail := replayEvents(Manifest{}, added, 0)
				want.Batches[n-1].Verdicts = append(want.Batches[n-1].Verdicts, tail.Verdicts...)
				want.Batches[n-1].TierVerdicts = append(want.Batches[n-1].TierVerdicts, tail.TierVerdicts...)
			}
			want.goodOffset = after.goodOffset
			if !reflect.DeepEqual(after, want) {
				t.Fatalf("after appending, the journal replays as %+v, want %+v", after, want)
			}
		})
	}
}
