package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pprl/internal/adult"
	"pprl/internal/cliutil"
	"pprl/internal/dataset"
	"pprl/internal/oracle"
)

// TestDeltasPagesNeverTear runs an appender and a poller concurrently (the
// race detector watches in `make race`): the poller integrates pages by
// from = next, as DeltasResponse promises it may. Every page must hold
// exactly the batches [from, next) — a page whose next was read before a
// commit and whose deltas after it would carry batch `next` too, and the
// following poll would read those again — no pair may arrive twice, and
// the union must be the frozen run's match set.
func TestDeltasPagesNeverTear(t *testing.T) {
	dataDir := t.TempDir()
	da, db := dataset.SplitOverlap(adult.Generate(900, 71), rand.New(rand.NewSource(72)))
	const perSide = 20
	a, b := sliceBatches(t, dataDir, "a", da, perSide), sliceBatches(t, dataDir, "b", db, perSide)

	_, ts := newTestServer(t, Config{Dir: t.TempDir(), DataDir: dataDir, JournalSync: 4096})
	ds := registerDataset(t, ts, DatasetSpec{Params: cliutil.Params{Allowance: serviceAmple}})

	appended := make(chan error, 1)
	go func() {
		for x := 0; x < 2*perSide; x++ {
			req := AppendRequest{Side: "alice", Path: a[x/2]}
			if x%2 == 1 {
				req = AppendRequest{Side: "bob", Path: b[x/2]}
			}
			for {
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/datasets/"+ds.ID+"/records", "application/json", bytes.NewReader(body))
				if err != nil {
					appended <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusAccepted {
					break
				}
				if resp.StatusCode != http.StatusServiceUnavailable {
					appended <- fmt.Errorf("append %d answered HTTP %d", x, resp.StatusCode)
					return
				}
				time.Sleep(time.Millisecond) // full queue: the drainer is behind
			}
		}
		appended <- nil
	}()

	seen := make(map[[2]int]bool)
	var pairs [][2]int
	deadline := time.Now().Add(60 * time.Second)
	for from := 0; from < 2*perSide; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d batches became visible", from, 2*perSide)
		}
		resp, err := http.Get(fmt.Sprintf("%s/v1/datasets/%s/deltas?from=%d", ts.URL, ds.ID, from))
		if err != nil {
			t.Fatal(err)
		}
		var page DeltasResponse
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength <= 0 || len(resp.TransferEncoding) != 0 {
			t.Fatalf("page left with Content-Length %d and Transfer-Encoding %v; want one sized write", resp.ContentLength, resp.TransferEncoding)
		}
		if page.From != from || page.Next < from {
			t.Fatalf("asked from=%d, page says from=%d next=%d", from, page.From, page.Next)
		}
		for _, d := range page.Deltas {
			if d.Batch < from || d.Batch >= page.Next {
				t.Fatalf("page [%d, %d) carries a delta of batch %d", from, page.Next, d.Batch)
			}
			p := [2]int{d.I, d.J}
			if seen[p] {
				t.Fatalf("pair (%d,%d) delivered twice (page [%d, %d))", d.I, d.J, from, page.Next)
			}
			seen[p] = true
			pairs = append(pairs, p)
		}
		from = page.Next
	}
	if err := <-appended; err != nil {
		t.Fatal(err)
	}

	if len(pairs) == 0 {
		t.Fatal("the world has no matches; the fixture exercises nothing")
	}
	if err := oracle.CheckIncrementalDeltas(pairs, frozenLink(t, da, db), da.Len(), db.Len()); err != nil {
		t.Error(err)
	}
}

// copyFixture copies testdata/<name> into a fresh directory and returns it:
// a daemon started on a state directory writes to it.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	root, fixture := t.TempDir(), filepath.Join("testdata", name)
	err := filepath.WalkDir(fixture, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dst := filepath.Join(root, strings.TrimPrefix(path, fixture))
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestLegacyBatchScheduleResumes starts the daemon on a state directory
// written by the commit before PR 24 (testdata/legacy-state: a dataset of
// three applied batches whose schedule is a batches.json array, 64
// comparisons bought, 51 deltas). The schedule is converted once, the
// journal replays all of it — not one comparison is bought again — the
// dataset takes appends after it, and a second restart finds only the
// line file.
func TestLegacyBatchScheduleResumes(t *testing.T) {
	// A copy: recovery rewrites the schedule.
	root := copyFixture(t, "legacy-state")
	dsDir := filepath.Join(root, "state", "datasets", "ds-000001")
	cfg := Config{Dir: filepath.Join(root, "state"), DataDir: filepath.Join(root, "data"), JournalSync: 1}
	// A registration of that era could also name the result encoding.
	// Recovery decodes leniently and the manifest never recorded the field,
	// so the dataset resumes — packed, as every dataset now runs.
	reg, err := os.ReadFile(filepath.Join(dsDir, "dataset.json"))
	if err != nil {
		t.Fatal(err)
	}
	reg = bytes.Replace(reg, []byte(`"allowance": 1073741824`), []byte(`"allowance": 1073741824, "packing": "off"`), 1)
	if err := os.WriteFile(filepath.Join(dsDir, "dataset.json"), reg, 0o644); err != nil {
		t.Fatal(err)
	}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	st := waitDataset(t, ts1, "ds-000001", "legacy replay done", func(st DatasetStatus) bool {
		return st.State == DatasetActive && st.Applied == 3
	})
	if st.Accepted != 3 || st.Stats.Purchased != 0 || st.Stats.Replayed != 64 || st.Stats.Used != 64 {
		t.Errorf("legacy resume: accepted %d, stats %+v; want 3 accepted, 64 verdicts replayed, nothing bought", st.Accepted, st.Stats)
	}
	if got := len(getDeltas(t, ts1, "ds-000001", 0).Deltas); got != 51 {
		t.Errorf("legacy resume serves %d deltas, the writing daemon served 51", got)
	}
	if _, err := os.Stat(filepath.Join(dsDir, "batches.json")); !os.IsNotExist(err) {
		t.Errorf("batches.json survived its conversion (stat err %v)", err)
	}
	raw, err := os.ReadFile(filepath.Join(dsDir, "batches.jsonl"))
	if err != nil || bytes.Count(raw, []byte("\n")) != 3 || !strings.HasPrefix(string(raw), `{"batch":0,"side":0,"ref":"a2.csv","at":"2026-`) {
		t.Errorf("converted schedule (err %v):\n%s", err, raw)
	}
	if code, ack := appendBatch(t, ts1, "ds-000001", AppendRequest{Side: "bob", Path: "b0.csv"}); code != http.StatusAccepted || ack.Batch != 3 {
		t.Fatalf("append after the conversion: HTTP %d, ack %+v", code, ack)
	}
	before := waitDataset(t, ts1, "ds-000001", "fourth batch applied", func(st DatasetStatus) bool { return st.Applied == 4 })
	ts1.Close()
	s1.Drain()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Drain()
	}()
	after := waitDataset(t, ts2, "ds-000001", "second replay done", func(st DatasetStatus) bool {
		return st.State == DatasetActive && st.Applied == 4
	})
	if after.Stats.Purchased != 0 || after.Stats.Used != before.Stats.Used || after.Stats.Deltas != before.Stats.Deltas {
		t.Errorf("second restart: stats %+v, before it %+v", after.Stats, before.Stats)
	}
}

// TestLegacySeedRefusedAtRecovery: a registration of an older build that
// set "seed" (testdata/legacy-seed, seed 7, one applied batch) wrote a
// manifest hashing it. The field is gone and the manifest now hashes the
// constant 0, so recovery refuses the journal by its manifest check rather
// than resume the dataset under another configuration.
func TestLegacySeedRefusedAtRecovery(t *testing.T) {
	root := copyFixture(t, "legacy-seed")
	s, err := New(Config{Dir: root, DataDir: filepath.Join("testdata", "legacy-state", "data"), JournalSync: 1})
	if err == nil {
		s.Drain()
		t.Fatal("a dataset registered with seed 7 was recovered")
	}
	if !strings.Contains(err.Error(), "ds-000001") || !strings.Contains(err.Error(), "journal recorded 7, run uses 0") {
		t.Errorf("recovery refused with %v, want the dataset's manifest mismatch on the seed", err)
	}
}

// TestLegacyDPDatasetFailsReadOnly: testdata/legacy-dp is a DP dataset
// (ε 2, dp_seed 7, a0.csv then b0.csv applied, its journal of record pairs
// written before DP walks were walks of the padded release). A stored DP
// dataset can never start, and must not keep the daemon from starting
// either: it comes back failed and read-only at every start, naming the
// API's refusal (ErrNoDP).
func TestLegacyDPDatasetFailsReadOnly(t *testing.T) {
	checkDPDatasetFailsReadOnly(t, copyFixture(t, "legacy-dp"), 2)
}

// TestTierDPDatasetFailsReadOnly: a dataset registered with ε and the tier
// on, by a build before the two refused each other, is a stored DP dataset
// like any other: at every start it comes back failed and read-only, naming
// the API's refusal (ErrNoDP), and the daemon starts.
func TestTierDPDatasetFailsReadOnly(t *testing.T) {
	root := t.TempDir()
	store, err := NewStore(root, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := register(store, datasetKind, func(id string, seq int) datasetFile {
		return datasetFile{ID: id, Seq: seq, Spec: DatasetSpec{Params: cliutil.Params{Epsilon: 2, Tier: "bloom"}}}
	}); err != nil {
		t.Fatal(err)
	}
	checkDPDatasetFailsReadOnly(t, root, 0)
}

// checkDPDatasetFailsReadOnly starts a daemon on root twice and checks that
// its DP dataset ds-000001 comes back failed by ErrNoDP, with accepted
// batches on record, and answers an append with 409.
func checkDPDatasetFailsReadOnly(t *testing.T, root string, accepted int) {
	t.Helper()
	cfg := Config{Dir: root, DataDir: filepath.Join("testdata", "legacy-state", "data"), JournalSync: 1}
	for life := 0; life < 2; life++ {
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("life %d: recovery refused the daemon: %v", life, err)
		}
		ts := httptest.NewServer(s.Handler())
		st := getDatasetStatus(t, ts, "ds-000001")
		if st.State != DatasetFailed || !strings.Contains(st.Error, ErrNoDP.Error()) || st.Accepted != accepted {
			t.Errorf("life %d: DP dataset came back %+v; want failed by ErrNoDP, %d batches accepted", life, st, accepted)
		}
		if code, _ := appendBatch(t, ts, "ds-000001", AppendRequest{Side: "alice", Path: "a1.csv"}); code != http.StatusConflict {
			t.Errorf("life %d: append to the failed dataset answered HTTP %d, want 409", life, code)
		}
		ts.Close()
		s.Drain()
	}
}

// TestQueueDepthIsNotAnOption: a registration's queue_depth used to size
// the ingest queue, checked for sign only, after the registration was
// persisted — one POST of 2^62 panicked the handler and every later start
// in recovery. Every queue is now queueDepth long: the strict decoder
// answers the key with 400 and registers nothing, and a stored one is
// ignored, its dataset starting and taking appends.
func TestQueueDepthIsNotAnOption(t *testing.T) {
	const huge = `"queue_depth":4611686018427387904`
	dataDir := filepath.Join("testdata", "legacy-state", "data")
	root := t.TempDir()
	s, err := New(Config{Dir: root, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(`{`+huge+`}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /v1/datasets {%s}: HTTP %d, want 400", huge, resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(root, datasetKind.dir, "ds-000001")); !os.IsNotExist(err) {
		t.Errorf("the refused registration left state behind (stat err %v)", err)
	}
	ds := registerDataset(t, ts, DatasetSpec{})
	ts.Close()
	s.Drain()

	path := s.store.path(datasetKind, ds.ID, datasetKind.specName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]json.RawMessage
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	file["spec"] = json.RawMessage(`{` + huge + `}`)
	if raw, err = json.Marshal(file); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts = newTestServer(t, Config{Dir: root, DataDir: dataDir})
	if code, _ := appendBatch(t, ts, ds.ID, AppendRequest{Side: "alice", Path: "a0.csv"}); code != http.StatusAccepted {
		t.Fatalf("append after recovery: HTTP %d, want 202", code)
	}
	waitDataset(t, ts, ds.ID, "batch applied", func(st DatasetStatus) bool { return st.State == DatasetActive && st.Applied == 1 })
}

// TestBatchScheduleRecovery: the schedule is one line per accept. A torn
// final line — a crash inside the write, so never acknowledged — is cut off
// before anything is appended behind it; damage anywhere else, or an entry
// out of its place, is refused.
func TestBatchScheduleRecovery(t *testing.T) {
	st, err := NewStore(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	df, err := register(st, datasetKind, func(id string, seq int) datasetFile { return datasetFile{ID: id, Seq: seq} })
	if err != nil {
		t.Fatal(err)
	}
	path := st.batchesPath(df.ID)
	if got, err := st.ReadBatchEntries(df.ID); err != nil || got != nil {
		t.Fatalf("fresh dataset: entries %v, err %v", got, err)
	}
	at := time.Date(2026, 10, 3, 4, 5, 6, 789, time.UTC)
	for b := 0; b < 3; b++ {
		if err := st.AppendBatchEntry(df.ID, batchEntry{Batch: b, Side: b % 2, Ref: fmt.Sprintf("r%d.csv", b), At: at}); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"batch":0,"side":0,"ref":"r0.csv","at":"2026-10-03T04:05:06.000000789Z"}` + "\n"; !bytes.HasPrefix(whole, []byte(want)) || bytes.Count(whole, []byte("\n")) != 3 {
		t.Fatalf("schedule file:\n%s", whole)
	}

	// Every cut of the final line, its missing newline included, reads as
	// two entries and leaves a file the next accept extends cleanly.
	second := bytes.LastIndexByte(whole[:len(whole)-1], '\n') + 1
	for cut := second + 1; cut < len(whole); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := st.ReadBatchEntries(df.ID)
		if err != nil || len(got) != 2 || got[1].Ref != "r1.csv" || !got[1].At.Equal(at) {
			t.Fatalf("cut at byte %d: entries %+v, err %v", cut, got, err)
		}
		if err := st.AppendBatchEntry(df.ID, batchEntry{Batch: 2, Ref: "again.csv", At: at}); err != nil {
			t.Fatal(err)
		}
		if got, err = st.ReadBatchEntries(df.ID); err != nil || len(got) != 3 || got[2].Ref != "again.csv" {
			t.Fatalf("cut at byte %d, after re-accepting batch 2: entries %+v, err %v", cut, got, err)
		}
	}

	for name, content := range map[string]string{
		"garbled middle line": string(whole[:second-10]) + "\n" + string(whole[second:]),
		"entry out of place":  string(whole[:second]) + string(whole[:second]),
		"gap":                 string(whole[:second-1]) + "\n" + strings.Replace(string(whole[second:]), `"batch":2`, `"batch":3`, 1),
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := st.ReadBatchEntries(df.ID); err == nil {
			t.Errorf("%s: accepted as %+v", name, got)
		}
	}
}

// BenchmarkAppendBatchEntry: an accept behind 16 entries and one behind
// 2,048 must cost the same — the schedule is appended to, not rewritten.
func BenchmarkAppendBatchEntry(b *testing.B) {
	for _, entries := range []int{16, 2048} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			st, err := NewStore(b.TempDir(), "")
			if err != nil {
				b.Fatal(err)
			}
			df, err := register(st, datasetKind, func(id string, seq int) datasetFile { return datasetFile{ID: id, Seq: seq} })
			if err != nil {
				b.Fatal(err)
			}
			at := time.Now().UTC()
			for n := 0; n < entries; n++ {
				if err := st.AppendBatchEntry(df.ID, batchEntry{Batch: n, Side: n % 2, Ref: "alice-000.csv", At: at}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if err := st.AppendBatchEntry(df.ID, batchEntry{Batch: entries + n, Side: n % 2, Ref: "alice-000.csv", At: at}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
