package service

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"pprl/internal/cliutil"
	"pprl/internal/journal"
	"pprl/internal/testkit"
)

var update = flag.Bool("update", false, "rewrite testdata/store-layout.golden")

var (
	// layoutTime is a time.Time as encoding/json writes it.
	layoutTime = regexp.MustCompile(`"\d{4}-\d\d-\d\dT[0-9:.]+Z"`)
	// layoutDuration is one of result.json's stage times or its latency
	// histogram's total, layoutBuckets that histogram's bucket counts.
	layoutDuration = regexp.MustCompile(`("ns": )\d+`)
	layoutBuckets  = regexp.MustCompile(`("buckets": )\[[^\]]*\]`)
)

// dumpLayout renders every file under root, in path order: a journal as
// its length and SHA-256, anything else as its bytes with the wall clock
// masked.
func dumpLayout(t *testing.T, root string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			fmt.Fprintf(&b, "%s/\n", filepath.ToSlash(rel))
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if filepath.Ext(path) == ".wal" {
			fmt.Fprintf(&b, "%s: %d bytes, sha256 %x\n", filepath.ToSlash(rel), len(raw), sha256.Sum256(raw))
			return nil
		}
		raw = layoutTime.ReplaceAll(raw, []byte(`"<time>"`))
		raw = layoutDuration.ReplaceAll(raw, []byte("${1}0"))
		raw = layoutBuckets.ReplaceAll(raw, []byte("${1}[]"))
		fmt.Fprintf(&b, "%s:\n%s", filepath.ToSlash(rel), raw)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestStoreLayoutPinned pins what the store writes for each kind of
// durable resource and each way one ends: a job that completes, a job
// canceled while queued, a dataset with two applied batches and a dataset
// whose ingest failed. The directory tree and every file's bytes, wall
// clock masked, must match testdata/store-layout.golden, so a state
// directory written by one build is the state directory another reads.
func TestStoreLayoutPinned(t *testing.T) {
	dataDir := writeDataDir(t, 120, 7)
	dir := t.TempDir()
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	s, ts := newTestServer(t, Config{
		Dir: dir, DataDir: dataDir, Workers: 1, JournalSync: 1,
		Hooks: Hooks{
			WrapJournal: func(id string, w *journal.Writer) journal.Sink {
				return &gatedSink{Sink: w, gate: gate}
			},
			// The second dataset's journal fails for real (no HardStop):
			// its failure is terminal and reaches status.json.
			WrapDatasetJournal: func(id string, w *journal.Writer) journal.BatchSink {
				if id == "ds-000002" {
					return &testkit.CrashSink{W: w, Remaining: 3}
				}
				return w
			},
		},
	})

	spec := testSpec()
	spec.SMCWorkers = 1
	done := submit(t, ts, spec)
	waitState(t, ts, done.ID, StateRunning)
	queued := submit(t, ts, spec)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, queued.ID, StateCanceled)
	openGate()
	waitState(t, ts, done.ID, StateDone)

	dsSpec := DatasetSpec{Params: cliutil.Params{Allowance: serviceAmple}}
	for _, want := range []DatasetState{DatasetActive, DatasetFailed} {
		ds := registerDataset(t, ts, dsSpec)
		for _, req := range []AppendRequest{{Side: "alice", Path: "a.csv"}, {Side: "bob", Path: "b.csv"}} {
			if code, _ := appendBatch(t, ts, ds.ID, req); code != http.StatusAccepted {
				t.Fatalf("%s: append %s answered HTTP %d", ds.ID, req.Path, code)
			}
		}
		waitDataset(t, ts, ds.ID, string(want), func(st DatasetStatus) bool {
			return st.State == want && (want == DatasetFailed || st.Applied == 2)
		})
	}
	ts.Close()
	s.Drain()

	got := dumpLayout(t, dir)
	golden := filepath.Join("testdata", "store-layout.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the store's files moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestReadResultLegacyTimings: a result.json written before stage lists,
// with its fixed "timings" object of *_ns fields, still loads; it carries
// no stages.
func TestReadResultLegacyTimings(t *testing.T) {
	st, err := NewStore(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-000001"
	if err := os.MkdirAll(st.Dir(jobKind, id), 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := `{"result":{"single_trust_domain":true,"total_pairs":6400,"matched_pairs":1,"allowance":200,"invocations":200,` +
		`"resume":{"resumed_pairs":0,"replayed_allowance":0},` +
		`"timings":{"anonymize_alice_ns":5,"anonymize_bob_ns":6,"dp_noise_ns":0,"blocking_ns":7,"tier_ns":0,"smc_ns":8}},` +
		`"matches":[[40,40]]}`
	if err := os.WriteFile(st.path(jobKind, id, "result.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := st.ReadResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Invocations != 200 || res.Result.TotalPairs != 6400 || len(res.Matches) != 1 || res.Result.Stages != nil {
		t.Errorf("legacy result read as %+v", res)
	}
}
