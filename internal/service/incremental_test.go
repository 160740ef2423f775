package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pprl/internal/adult"
	"pprl/internal/blocking"
	"pprl/internal/cliutil"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/dpblock"
	"pprl/internal/incremental"
	"pprl/internal/journal"
	"pprl/internal/oracle"
	"pprl/internal/testkit"
)

// serviceAmple is an allowance no smoke-scale run exhausts, so the
// delta-equivalence oracle applies.
const serviceAmple = 1 << 30

// writeCSV writes one dataset (or slice) as a CSV batch file.
func writeCSV(t *testing.T, dir, name string, d *dataset.Dataset) string {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return name
}

// sliceBatches cuts a relation into n contiguous batch files named
// <prefix>0.csv … and returns the refs. The concatenation equals the
// original relation, so frozen-run record indexes line up with the
// incremental engine's.
func sliceBatches(t *testing.T, dir, prefix string, d *dataset.Dataset, n int) []string {
	t.Helper()
	refs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*d.Len()/n, (i+1)*d.Len()/n
		refs = append(refs, writeCSV(t, dir, fmt.Sprintf("%s%d.csv", prefix, i), d.Slice(lo, hi)))
	}
	return refs
}

func registerDataset(t *testing.T, ts *httptest.Server, spec DatasetSpec) DatasetStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("register returned %d: %s", resp.StatusCode, raw)
	}
	var st DatasetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// appendBatch posts one append; returns the HTTP code and, on 202, the ack.
func appendBatch(t *testing.T, ts *httptest.Server, id string, req AppendRequest) (int, AppendAck) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/datasets/"+id+"/records", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, AppendAck{}
	}
	var ack AppendAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ack
}

func getDatasetStatus(t *testing.T, ts *httptest.Server, id string) DatasetStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/datasets/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st DatasetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDataset polls until cond holds or the deadline passes.
func waitDataset(t *testing.T, ts *httptest.Server, id string, what string, cond func(DatasetStatus) bool) DatasetStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getDatasetStatus(t, ts, id)
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("dataset %s never reached %q; last status %+v", id, what, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getDeltas(t *testing.T, ts *httptest.Server, id string, from int) DeltasResponse {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/datasets/%s/deltas?from=%d", ts.URL, id, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("deltas returned %d: %s", resp.StatusCode, raw)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// A delta page is five numbers per match; indenting it nearly doubles
	// the bytes on the wire.
	if bytes.Contains(raw, []byte("\n ")) {
		t.Fatalf("deltas page is pretty-printed:\n%s", raw)
	}
	var dr DeltasResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	return dr
}

// frozenLink is the frozen oracle: one run over the final relations under
// the same fixed-level binning a live dataset uses.
func frozenLink(t *testing.T, da, db *dataset.Dataset) *core.Result {
	t.Helper()
	lb, err := dpblock.NewLevelBinner(0)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := core.DefaultConfig(adult.DefaultQIDs())
	fcfg.AliceAnonymizer, fcfg.BobAnonymizer = lb, lb
	fcfg.AliceK, fcfg.BobK = 1, 1
	fcfg.Allowance = serviceAmple
	frozen, err := core.Link(core.Holder{Data: da}, core.Holder{Data: db}, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	return frozen
}

// TestServiceIncrementalSmoke is the acceptance path for live datasets:
// register → append batches → simulated kill mid-ingest → restart →
// journal replay plus fresh appends → the exposed delta union is
// pair-identical to a frozen run over the final relations, with exact
// allowance accounting across the crash.
func TestServiceIncrementalSmoke(t *testing.T) {
	dataDir := t.TempDir()
	full := adult.Generate(120, 31)
	da, db := dataset.SplitOverlap(full, rand.New(rand.NewSource(32)))
	aliceRefs := sliceBatches(t, dataDir, "a", da, 3)
	bobRefs := sliceBatches(t, dataDir, "b", db, 2)
	// The append schedule interleaves sides, exercising both directions
	// of the live index.
	schedule := []AppendRequest{
		{Side: "alice", Path: aliceRefs[0]},
		{Side: "bob", Path: bobRefs[0]},
		{Side: "alice", Path: aliceRefs[1]},
		{Side: "bob", Path: bobRefs[1]},
		{Side: "alice", Path: aliceRefs[2]},
	}

	frozen := frozenLink(t, da, db)
	if frozen.Invocations < 3 {
		t.Fatalf("frozen run purchased only %d comparisons; workload too small to crash mid-ingest", frozen.Invocations)
	}

	// Phase 1: the ingest journal dies after a handful of appends —
	// like a SIGKILL, nothing terminal reaches disk.
	dir := t.TempDir()
	crashAfter := int(frozen.Invocations / 2)
	s1, err := New(Config{
		Dir: dir, DataDir: dataDir, JournalSync: 1,
		Hooks: Hooks{
			WrapDatasetJournal: func(id string, w *journal.Writer) journal.BatchSink {
				return &testkit.CrashSink{W: w, Remaining: crashAfter}
			},
			HardStop: testkit.ErrCrash,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	ds := registerDataset(t, ts1, DatasetSpec{Params: cliutil.Params{Allowance: serviceAmple}})

	accepted := make([]bool, len(schedule))
	for i, req := range schedule {
		code, ack := appendBatch(t, ts1, ds.ID, req)
		switch code {
		case http.StatusAccepted:
			accepted[i] = true
			if ack.Batch < 0 || ack.Records == 0 {
				t.Fatalf("ack %+v malformed", ack)
			}
		case http.StatusConflict:
			// The drainer already hit the injected crash; later batches
			// are refused and will be re-posted after the restart.
		default:
			t.Fatalf("append %d returned %d", i, code)
		}
	}
	failed := waitDataset(t, ts1, ds.ID, "failed", func(st DatasetStatus) bool {
		return st.State == DatasetFailed
	})
	if failed.Error == "" {
		t.Error("failed dataset carries no error")
	}
	// The injected crash must look like a kill: no terminal state file.
	if _, err := os.Stat(filepath.Join(dir, "datasets", ds.ID, "status.json")); !os.IsNotExist(err) {
		t.Errorf("simulated crash persisted a terminal status (stat err %v)", err)
	}
	// Appends to a failed dataset classify as terminal conflicts.
	code, _ := appendBatch(t, ts1, ds.ID, schedule[0])
	if code != http.StatusConflict {
		t.Errorf("append to failed dataset returned %d, want 409", code)
	}
	// A delta stream on the failed dataset delivers the committed deltas,
	// then names the failure and ends.
	failResp, err := http.Get(fmt.Sprintf("%s/v1/datasets/%s/deltas?from=0&stream=1", ts1.URL, ds.ID))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(failResp.Body)
	failResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := json.Marshal(failed.Error)
	if want := fmt.Sprintf("event: error\ndata: %s\n\n", msg); !strings.HasSuffix(string(raw), want) || strings.Count(string(raw), "event: error") != 1 {
		t.Errorf("failed dataset's stream does not end on its error:\n%s", raw)
	}
	ts1.Close()
	s1.Drain()

	// Phase 2: restart on the same root, crash hooks gone. Recovery
	// replays the accepted schedule through the journal.
	s2, err := New(Config{Dir: dir, DataDir: dataDir, JournalSync: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Drain()
	}()
	waitDataset(t, ts2, ds.ID, "replay done", func(st DatasetStatus) bool {
		return st.State == DatasetActive && st.Applied == st.Accepted
	})
	for i, req := range schedule {
		if accepted[i] {
			continue
		}
		if code, _ := appendBatch(t, ts2, ds.ID, req); code != http.StatusAccepted {
			t.Fatalf("re-append %d returned %d", i, code)
		}
	}
	final := waitDataset(t, ts2, ds.ID, "all batches applied", func(st DatasetStatus) bool {
		return st.Applied == len(schedule)
	})

	// The exposed delta union must be pair-identical to the frozen run.
	dr := getDeltas(t, ts2, ds.ID, 0)
	if dr.Next != len(schedule) {
		t.Errorf("deltas next = %d, want %d", dr.Next, len(schedule))
	}
	pairs := make([][2]int, 0, len(dr.Deltas))
	for _, d := range dr.Deltas {
		pairs = append(pairs, [2]int{d.I, d.J})
	}
	if err := oracle.CheckIncrementalDeltas(pairs, frozen, da.Len(), db.Len()); err != nil {
		t.Error(err)
	}

	// Exact accounting across the crash: replayed + live purchases equal
	// the frozen run's comparisons, nothing bought twice.
	if got := final.Stats.Purchased + final.Stats.Replayed; got != frozen.Invocations {
		t.Errorf("purchased %d + replayed %d != frozen invocations %d",
			final.Stats.Purchased, final.Stats.Replayed, frozen.Invocations)
	}
	if final.Stats.Replayed == 0 {
		t.Error("restart replayed no verdicts; the crash point never bit")
	}

	// Incremental paging: from=N serves only batches ≥ N.
	page := getDeltas(t, ts2, ds.ID, 3)
	for _, d := range page.Deltas {
		if d.Batch < 3 {
			t.Errorf("deltas?from=3 returned batch %d", d.Batch)
		}
	}
	if want := len(getDeltas(t, ts2, ds.ID, 0).Deltas) - len(deltasBefore(dr, 3)); len(page.Deltas) != want {
		t.Errorf("paged deltas = %d, want %d", len(page.Deltas), want)
	}

	// The SSE variant serves the same window as its first event.
	streamResp, err := http.Get(fmt.Sprintf("%s/v1/datasets/%s/deltas?from=0&stream=1", ts2.URL, ds.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(streamResp.Body)
	var event DeltasResponse
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			if err := json.Unmarshal([]byte(line), &event); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if len(event.Deltas) != len(dr.Deltas) || event.Next != dr.Next {
		t.Errorf("stream event (%d deltas, next %d) diverges from poll (%d, %d)",
			len(event.Deltas), event.Next, len(dr.Deltas), dr.Next)
	}

	// Correlation ids: echoed when supplied, minted otherwise.
	req, _ := http.NewRequest("GET", ts2.URL+"/v1/datasets/"+ds.ID, nil)
	req.Header.Set("X-Request-Id", "smoke-req-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "smoke-req-7" {
		t.Errorf("request id echoed as %q", got)
	}
	resp2, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-Id") == "" {
		t.Error("no request id minted for an id-less request")
	}
}

// failingSink fails the first purchase it is asked to journal with err.
type failingSink struct {
	*journal.Writer
	err error
}

func (f failingSink) Record(i, j int, matched bool) error { return f.err }

// TestDatasetStreamErrorFrameIsJSON: a failed dataset's delta stream ends
// on an error frame whose data line is JSON, like every other data line
// the service writes, whatever bytes the message holds. Go's %q quoting
// wrote NUL as \x00, a bell as \a and a stray byte as \xff, and
// encoding/json refuses all three.
func TestDatasetStreamErrorFrameIsJSON(t *testing.T) {
	dataDir := t.TempDir()
	da, db := dataset.SplitOverlap(adult.Generate(120, 31), rand.New(rand.NewSource(32)))
	a, b := sliceBatches(t, dataDir, "a", da, 1), sliceBatches(t, dataDir, "b", db, 1)
	_, ts := newTestServer(t, Config{Dir: t.TempDir(), DataDir: dataDir, Hooks: Hooks{
		WrapDatasetJournal: func(id string, w *journal.Writer) journal.BatchSink {
			return failingSink{w, errors.New("disk says nul\x00 bell\a stray\xff")}
		},
	}})
	ds := registerDataset(t, ts, DatasetSpec{Params: cliutil.Params{Allowance: serviceAmple}})
	for _, req := range []AppendRequest{{Side: "alice", Path: a[0]}, {Side: "bob", Path: b[0]}} {
		if code, _ := appendBatch(t, ts, ds.ID, req); code != http.StatusAccepted {
			t.Fatalf("append answered %d", code)
		}
	}
	failed := waitDataset(t, ts, ds.ID, "failed", func(st DatasetStatus) bool { return st.State == DatasetFailed })
	if !strings.Contains(failed.Error, "nul\x00 bell\a stray") {
		t.Fatalf("the dataset failed with %q, not the injected error", failed.Error)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/datasets/%s/deltas?from=0&stream=1", ts.URL, ds.ID))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	frame, ok := strings.CutSuffix(string(raw), "\n\n")
	_, data, found := strings.Cut(frame, "event: error\ndata: ")
	if !ok || !found || strings.Contains(data, "\n") {
		t.Fatalf("the stream does not end on one error frame:\n%q", raw)
	}
	var got string
	if err := json.Unmarshal([]byte(data), &got); err != nil || got != failed.Error {
		t.Errorf("error frame data %s decodes to %q (%v); want the dataset's error %q", data, got, err, failed.Error)
	}
}

// deltasBefore counts a response's deltas with batch < n.
func deltasBefore(dr DeltasResponse, n int) []int {
	var out []int
	for _, d := range dr.Deltas {
		if d.Batch < n {
			out = append(out, d.Batch)
		}
	}
	return out
}

// TestServiceDedupDataset: a dedup registration links one relation with
// itself; the delta union over multiple appends equals the exact rule's
// unordered match pairs, normalized i < j.
func TestServiceDedupDataset(t *testing.T) {
	dataDir := t.TempDir()
	d := adult.Generate(60, 41)
	refs := sliceBatches(t, dataDir, "d", d, 3)

	_, ts := newTestServer(t, Config{Dir: t.TempDir(), DataDir: dataDir})
	ds := registerDataset(t, ts, DatasetSpec{Dedup: true, Params: cliutil.Params{Allowance: serviceAmple}})
	if !ds.Dedup {
		t.Error("registration lost the dedup flag")
	}

	// Dedup datasets have one side.
	if code, _ := appendBatch(t, ts, ds.ID, AppendRequest{Side: "bob", Path: refs[0]}); code != http.StatusUnprocessableEntity {
		t.Errorf("bob append to dedup dataset returned %d, want 422", code)
	}
	for _, ref := range refs {
		if code, _ := appendBatch(t, ts, ds.ID, AppendRequest{Path: ref}); code != http.StatusAccepted {
			t.Fatalf("append %s returned %d", ref, code)
		}
	}
	waitDataset(t, ts, ds.ID, "applied", func(st DatasetStatus) bool {
		return st.Applied == len(refs)
	})

	schema := d.Schema()
	qids, err := schema.Resolve(adult.DefaultQIDs())
	if err != nil {
		t.Fatal(err)
	}
	rule, err := blocking.RuleFor(schema, qids, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := oracle.New(d, d, qids, rule)
	if err != nil {
		t.Fatal(err)
	}
	dr := getDeltas(t, ts, ds.ID, 0)
	pairs := make([][2]int, 0, len(dr.Deltas))
	for _, del := range dr.Deltas {
		pairs = append(pairs, [2]int{del.I, del.J})
	}
	if err := oracle.CheckDedupDeltas(pairs, orc); err != nil {
		t.Error(err)
	}
}

// TestDeltasReadThreeWays: a two-sided dataset and a dedup one hand out
// the same deltas, delta for delta and in order, as a GET page, as the SSE
// frames of a stream followed from before the first batch, and through
// the engine's own log. The dedup page's runs take both axes: a new
// record is the j of its pairs with residents and the i of its pairs with
// the batch's later records.
func TestDeltasReadThreeWays(t *testing.T) {
	dataDir := t.TempDir()
	da, db := dataset.SplitOverlap(adult.Generate(400, 61), rand.New(rand.NewSource(62)))
	as, bs := sliceBatches(t, dataDir, "a", da, 3), sliceBatches(t, dataDir, "b", db, 3)
	ds := sliceBatches(t, dataDir, "d", adult.Generate(240, 63), 4)
	var twoSided, dedup []AppendRequest
	for k := range as {
		twoSided = append(twoSided, AppendRequest{Side: "alice", Path: as[k]}, AppendRequest{Side: "bob", Path: bs[k]})
	}
	for _, ref := range ds {
		dedup = append(dedup, AppendRequest{Path: ref})
	}
	s, ts := newTestServer(t, Config{Dir: t.TempDir(), DataDir: dataDir})
	for _, c := range []struct {
		name  string
		dedup bool
		reqs  []AppendRequest
	}{{"two-sided", false, twoSided}, {"dedup", true, dedup}} {
		t.Run(c.name, func(t *testing.T) {
			st := registerDataset(t, ts, DatasetSpec{Dedup: c.dedup, Params: cliutil.Params{Allowance: serviceAmple}})
			stream, err := http.Get(fmt.Sprintf("%s/v1/datasets/%s/deltas?from=0&stream=1", ts.URL, st.ID))
			if err != nil {
				t.Fatal(err)
			}
			defer stream.Body.Close()
			for _, req := range c.reqs {
				if code, _ := appendBatch(t, ts, st.ID, req); code != http.StatusAccepted {
					t.Fatalf("append %s answered %d", req.Path, code)
				}
			}
			var streamed []incremental.Delta
			frames := 0
			sc := bufio.NewScanner(stream.Body)
			sc.Buffer(nil, 1<<24)
			for next := 0; next < len(c.reqs) && sc.Scan(); {
				line, ok := strings.CutPrefix(sc.Text(), "data: ")
				if !ok {
					continue
				}
				var frame DeltasResponse
				if err := json.Unmarshal([]byte(line), &frame); err != nil {
					t.Fatalf("frame %d: %v", frames, err)
				}
				if frame.From != next {
					t.Fatalf("frame %d starts at batch %d, want %d", frames, frame.From, next)
				}
				streamed, next = append(streamed, frame.Deltas...), frame.Next
				frames++
			}

			resp, err := http.Get(ts.URL + "/v1/datasets/" + st.ID + "/deltas?from=0")
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			var page DeltasResponse
			if err == nil {
				err = json.Unmarshal(raw, &page)
			}
			if err != nil || page.Next != len(c.reqs) {
				t.Fatalf("page next %d (%v), want %d", page.Next, err, len(c.reqs))
			}
			ld, err := s.liveOnly(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			_, batches := ld.eng.Deltas(0)
			logged := slices.Concat(batches...)
			if len(logged) == 0 || !slices.Equal(page.Deltas, logged) || !slices.Equal(streamed, logged) {
				t.Fatalf("%d logged deltas; the page reads %d, %d SSE frames %d, not the same in order", len(logged), len(page.Deltas), frames, len(streamed))
			}

			var runs reflectivePage
			if err := json.Unmarshal(raw, &runs); err != nil {
				t.Fatal(err)
			}
			var shared [2]int // runs of two deltas or more, by axis
			for _, r := range runs.Deltas {
				if len(r) >= 8 {
					shared[r[1]]++
				}
			}
			t.Logf("%d deltas in %d runs (%d, %d of two or more on axis 0, 1), %d SSE frames, %.1f B a delta",
				len(logged), len(runs.Deltas), shared[0], shared[1], frames, float64(len(raw))/float64(len(logged)))
			if c.dedup && (shared[0] == 0 || shared[1] == 0) {
				t.Errorf("the dedup page shares records on axis 0 in %d runs and axis 1 in %d; want both", shared[0], shared[1])
			}
		})
	}
}

// TestDatasetStatusStageTimes: after two appends a live dataset's status
// reports its engine's lifetime time in each batch stage, in order.
func TestDatasetStatusStageTimes(t *testing.T) {
	dataDir := writeDataDir(t, 120, 7)
	_, ts := newTestServer(t, Config{Dir: t.TempDir(), DataDir: dataDir})
	ds := registerDataset(t, ts, DatasetSpec{Params: cliutil.Params{Allowance: serviceAmple}})
	for _, req := range []AppendRequest{{Side: "alice", Path: "a.csv"}, {Side: "bob", Path: "b.csv"}} {
		if code, _ := appendBatch(t, ts, ds.ID, req); code != http.StatusAccepted {
			t.Fatalf("append %s returned %d", req.Path, code)
		}
	}
	st := waitDataset(t, ts, ds.ID, "applied", func(st DatasetStatus) bool { return st.Applied == 2 })
	times := st.Stats.Stages
	want := []string{"ingest", "blocking", "smc", "commit"}
	if len(times) != len(want) {
		t.Fatalf("stages = %v, want %v", times, want)
	}
	for i, name := range want {
		if times[i].Name != name || times[i].Time <= 0 {
			t.Errorf("stage %d = %+v, want %s with a positive time", i, times[i], name)
		}
	}
}

// TestServiceDatasetValidation: registrations and appends are rejected
// at the door with classified errors.
func TestServiceDatasetValidation(t *testing.T) {
	dataDir := t.TempDir()
	d := adult.Generate(20, 5)
	ref := writeCSV(t, dataDir, "d.csv", d)
	_, ts := newTestServer(t, Config{Dir: t.TempDir(), DataDir: dataDir})

	bad := []cliutil.Params{
		{Theta: -1},                  // negative threshold
		{Strategy: "classifier"},     // needs the full residual population
		{Heuristic: "nope"},          // unknown heuristic
		{Epsilon: -2},                // DP, refused whole (ErrNoDP)
		{SchemaPath: "missing.json"}, // unloadable schema
		{QIDs: []string{"nope"}},     // no such attribute: the engine does not build
		{Secure: true, KeyBits: -1},  // negative key size
		{Secure: true, KeyBits: 32},  // below the engine's floor
	}
	var bodies [][]byte
	for _, p := range bad {
		body, _ := json.Marshal(DatasetSpec{Params: p})
		bodies = append(bodies, body)
	}
	// Fields older builds accepted are unknown to the strict decoder now.
	bodies = append(bodies, []byte(`{"packing":"off"}`), []byte(`{"seed":7}`))
	for i, body := range bodies {
		resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ae struct {
			Kind      string `json:"kind"`
			Retryable bool   `json:"retryable"`
		}
		json.NewDecoder(resp.Body).Decode(&ae)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %d returned %d, want 400", i, resp.StatusCode)
		}
		if ae.Kind != "bad_request" || ae.Retryable {
			t.Errorf("bad spec %d classified kind=%q retryable=%v", i, ae.Kind, ae.Retryable)
		}
	}

	// Unknown dataset: classified not_found.
	resp, err := http.Get(ts.URL + "/v1/datasets/ds-000099")
	if err != nil {
		t.Fatal(err)
	}
	var ae apiError
	json.NewDecoder(resp.Body).Decode(&ae)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || ae.Kind != KindNotFound {
		t.Errorf("unknown dataset returned %d kind=%q", resp.StatusCode, ae.Kind)
	}

	// Bad appends against a real dataset.
	ds := registerDataset(t, ts, DatasetSpec{})
	appends := []struct {
		req  AppendRequest
		code int
	}{
		{AppendRequest{Path: ""}, http.StatusBadRequest},
		{AppendRequest{Side: "carol", Path: ref}, http.StatusBadRequest},
		{AppendRequest{Path: "missing.csv"}, http.StatusBadRequest},
		{AppendRequest{Path: "../escape.csv"}, http.StatusBadRequest},
	}
	for i, c := range appends {
		if code, _ := appendBatch(t, ts, ds.ID, c.req); code != c.code {
			t.Errorf("append case %d returned %d, want %d", i, code, c.code)
		}
	}
}
