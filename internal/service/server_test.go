package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pprl/internal/adult"
	"pprl/internal/cliutil"
	"pprl/internal/dataset"
	"pprl/internal/distrib"
	"pprl/internal/journal"
	"pprl/internal/metrics"
)

// gatedSink stalls verdict appends until the gate opens, pinning its
// job on a worker for as long as a test needs.
type gatedSink struct {
	journal.Sink
	gate <-chan struct{}
}

func (g *gatedSink) Record(i, j int, matched bool) error {
	<-g.gate
	return g.Sink.Record(i, j, matched)
}

// writeDataDir generates two overlapping Adult relations and writes them
// as a.csv and b.csv in a fresh directory.
func writeDataDir(t *testing.T, n int, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	full := adult.Generate(n, seed)
	da, db := dataset.SplitOverlap(full, rand.New(rand.NewSource(seed+1)))
	for name, d := range map[string]*dataset.Dataset{"a.csv": da, "b.csv": db} {
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
	}
	return dir
}

// testSpec is the base submission the service tests vary from: small k
// for speed, an explicit allowance so crash points land mid-budget.
func testSpec() JobSpec {
	return JobSpec{Job: cliutil.Job{
		AlicePath: "a.csv",
		BobPath:   "b.csv",
		K:         8,
		Params:    cliutil.Params{Allowance: 200},
		Evaluate:  true,
	}}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec JobSpec) JobStatus {
	t.Helper()
	st, code := submitCode(t, ts, spec)
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("submit returned %d", code)
	}
	return st
}

func submitCode(t *testing.T, ts *httptest.Server, spec JobSpec) (JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		io.Copy(io.Discard, resp.Body)
		return JobStatus{}, resp.StatusCode
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches one of the wanted states,
// failing fast if it settles anywhere else.
func waitState(t *testing.T, ts *httptest.Server, id string, want ...State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, ts, id)
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %q (err %q), waiting for %v", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getResult(t *testing.T, ts *httptest.Server, id string) JobResult {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("result returned %d: %s", resp.StatusCode, raw)
	}
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// checkJobStages: a finished job's stage times run from anonymize-alice to
// smc, every stage timed.
func checkJobStages(t *testing.T, where string, times metrics.Times) {
	t.Helper()
	if len(times) < 2 || times[0].Name != "anonymize-alice" || times[len(times)-1].Name != "smc" {
		t.Errorf("%s: stages %v, want anonymize-alice … smc", where, times)
	}
	for _, st := range times {
		if st.Time <= 0 {
			t.Errorf("%s: stage %s took %v", where, st.Name, st.Time)
		}
	}
}

// TestServiceEndToEnd: submit over HTTP, watch it run, fetch the result,
// and check the operational endpoints along the way.
func TestServiceEndToEnd(t *testing.T) {
	dataDir := writeDataDir(t, 120, 9)
	_, ts := newTestServer(t, Config{Dir: t.TempDir(), DataDir: dataDir, Workers: 2})

	st := submit(t, ts, testSpec())
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job in state %q", st.State)
	}
	done := waitState(t, ts, st.ID, StateDone)
	if done.Progress == nil || done.Progress.Phase != "smc" {
		t.Fatalf("final progress = %+v, want smc phase", done.Progress)
	}
	checkJobStages(t, "status", done.Progress.Stages)

	res := getResult(t, ts, st.ID)
	if res.Result.MatchedPairs != int64(len(res.Matches)) {
		t.Errorf("matched_pairs %d != len(matches) %d", res.Result.MatchedPairs, len(res.Matches))
	}
	if res.Result.Allowance != 200 {
		t.Errorf("allowance = %d, want 200", res.Result.Allowance)
	}
	if res.Evaluation == nil || res.TruthPairs == 0 {
		t.Errorf("evaluation missing: %+v truth=%d", res.Evaluation, res.TruthPairs)
	}

	// The events stream replays the settled status once and closes.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content type %q", ct)
	}
	if n := strings.Count(string(raw), "data: "); n != 1 {
		t.Errorf("a settled job's stream carries %d events, want 1:\n%s", n, raw)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n\n")
	var last JobStatus
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-1], "data: ")), &last); err != nil {
		t.Fatalf("events payload: %v (%q)", err, raw)
	}
	if last.State != StateDone || last.Progress == nil {
		t.Fatalf("final event: %+v", last)
	}
	checkJobStages(t, "events frame", last.Progress.Stages)
	checkJobStages(t, "result", res.Result.Stages)

	// Operational endpoints.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if health.Status != "ok" || health.Workers != 2 {
		t.Errorf("healthz = %+v", health)
	}
	mt, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mt.Body)
	mt.Body.Close()
	for _, want := range []string{
		"# TYPE pprl_jobs_done_total counter",
		"pprl_jobs_done_total 1",
		"pprl_smc_comparisons_total",
		"pprl_blocking_class_pairs_total",
		"pprl_blocking_rule_evaluations_total",
		"pprl_blocking_pruned_class_pairs_total",
		"pprl_blocking_unknown_pairs_total",
	} {
		if !strings.Contains(string(mraw), want) {
			t.Errorf("metrics missing %q:\n%s", want, mraw)
		}
	}
	// Every job blocks on the hierarchy index, which at this scale always
	// prunes something.
	if strings.Contains(string(mraw), "pprl_blocking_pruned_class_pairs_total 0\n") {
		t.Errorf("the job pruned nothing:\n%s", mraw)
	}
}

// TestServiceValidation: malformed and invalid submissions are rejected
// before they reach the queue, and lookups of unknown jobs 404.
func TestServiceValidation(t *testing.T) {
	dataDir := writeDataDir(t, 40, 3)
	_, ts := newTestServer(t, Config{Dir: t.TempDir(), DataDir: dataDir})

	cases := []JobSpec{
		{},                                     // missing datasets
		{Job: cliutil.Job{AlicePath: "a.csv"}}, // missing bob
		{Job: cliutil.Job{AlicePath: "a.csv", BobPath: "b.csv", Params: cliutil.Params{Heuristic: "nope"}}}, // unknown heuristic
		{Job: cliutil.Job{AlicePath: "../a.csv", BobPath: "b.csv"}},                                         // escapes data dir
		{Job: cliutil.Job{AlicePath: "/etc/passwd", BobPath: "b.csv"}},                                      // absolute ref
		{Job: cliutil.Job{AlicePath: "a.csv", BobPath: "b.csv", Params: cliutil.Params{Theta: -1}}},         // negative parameter
		{Job: cliutil.Job{AlicePath: "a.csv", BobPath: "b.csv", Params: cliutil.Params{KeyBits: -512}}},     // negative key size
		{Job: cliutil.Job{AlicePath: "a.csv", BobPath: "b.csv", Params: cliutil.Params{KeyBits: 63}}},       // below the engine's floor
	}
	for i, spec := range cases {
		if _, code := submitCode(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("case %d: submit returned %d, want 400", i, code)
		}
	}

	// Unknown field in the body is a client error too — "packing" and
	// "blocking", which older builds accepted, included.
	for _, field := range []string{`"bogus":1`, `"packing":"off"`, `"blocking":"dense"`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"alice_path":"a.csv","bob_path":"b.csv",`+field+`}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("unknown field %s returned %d, want 400", field, resp.StatusCode)
		}
	}

	for _, path := range []string{"/v1/jobs/job-000099", "/v1/jobs/job-000099/result", "/v1/jobs/job-000099/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s returned %d, want 404", path, resp.StatusCode)
		}
	}

	// A dataset that fails to load fails the job, not the daemon.
	st := submit(t, ts, JobSpec{Job: cliutil.Job{AlicePath: "missing.csv", BobPath: "b.csv"}})
	failed := waitState(t, ts, st.ID, StateFailed)
	if failed.Error == "" {
		t.Error("failed job carries no error")
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Errorf("result of failed job returned %d, want 409", rr.StatusCode)
	}
}

// TestServiceIdempotencyKey: a retried submission with the same key
// returns the original job instead of spending the budget twice.
func TestServiceIdempotencyKey(t *testing.T) {
	dataDir := writeDataDir(t, 60, 5)
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Dir: dir, DataDir: dataDir})

	spec := testSpec()
	spec.IdempotencyKey = "retry-me"
	first, code := submitCode(t, ts, spec)
	if code != http.StatusCreated {
		t.Fatalf("first submit returned %d", code)
	}
	second, code := submitCode(t, ts, spec)
	if code != http.StatusOK {
		t.Errorf("duplicate submit returned %d, want 200", code)
	}
	if second.ID != first.ID {
		t.Fatalf("duplicate submit created %s, want %s", second.ID, first.ID)
	}
	waitState(t, ts, first.ID, StateDone)

	// The key survives a daemon restart: recovery rebuilds the mapping
	// from the persisted specs.
	s2, err := New(Config{Dir: dir, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	third, code := submitCode(t, ts2, spec)
	if code != http.StatusOK || third.ID != first.ID {
		t.Errorf("post-restart duplicate submit = %s (%d), want %s (200)", third.ID, code, first.ID)
	}
}

// TestServiceCancel: canceling a queued job persists across restart;
// canceling a running job checkpoints and settles as canceled.
func TestServiceCancel(t *testing.T) {
	dataDir := writeDataDir(t, 120, 7)
	dir := t.TempDir()
	// Gate the first job's journal so it deterministically occupies the
	// single worker while the test cancels the job queued behind it.
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	_, ts := newTestServer(t, Config{
		Dir: dir, DataDir: dataDir, Workers: 1,
		Hooks: Hooks{
			WrapJournal: func(id string, w *journal.Writer) journal.Sink {
				if id == jobKind.id(1) {
					return &gatedSink{Sink: w, gate: gate}
				}
				return w
			},
		},
	})

	// Occupy the single worker, then cancel the queued job behind it.
	running := submit(t, ts, testSpec())
	queued := submit(t, ts, testSpec())
	waitState(t, ts, running.ID, StateRunning)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel returned %d", resp.StatusCode)
	}
	canceled := waitState(t, ts, queued.ID, StateCanceled)
	if canceled.State != StateCanceled {
		t.Fatalf("queued job canceled into %q", canceled.State)
	}
	openGate()
	waitState(t, ts, running.ID, StateDone)

	// After a restart the cancellation still holds — it must not be
	// resurrected as a recoverable job.
	s2, err := New(Config{Dir: dir, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if st := getStatus(t, ts2, queued.ID); st.State != StateCanceled {
		t.Errorf("canceled job recovered as %q", st.State)
	}
	if st := getStatus(t, ts2, running.ID); st.State != StateDone {
		t.Errorf("done job recovered as %q", st.State)
	}
}

// TestServiceConcurrencyBoundUnderLoad: N jobs on W<N workers — the
// running count never exceeds W (observed via /healthz while the burst
// drains), /metrics keeps serving, and every job completes.
func TestServiceConcurrencyBoundUnderLoad(t *testing.T) {
	const workers, n = 2, 8
	dataDir := writeDataDir(t, 120, 11)
	_, ts := newTestServer(t, Config{Dir: t.TempDir(), DataDir: dataDir, Workers: workers})

	spec := testSpec()
	spec.Allowance = 2000
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s := spec
		s.IdempotencyKey = fmt.Sprintf("load-%d", i)
		ids = append(ids, submit(t, ts, s).ID)
	}

	deadline := time.Now().Add(120 * time.Second)
	for {
		var health struct {
			Running int `json:"running"`
			Queued  int `json:"queued"`
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if health.Running > workers {
			t.Fatalf("healthz reports %d running, bound is %d", health.Running, workers)
		}
		mresp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		mraw, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		if !strings.Contains(string(mraw), "pprl_jobs_running") {
			t.Fatalf("metrics stopped serving under load:\n%s", mraw)
		}

		allDone := true
		for _, id := range ids {
			if getStatus(t, ts, id).State != StateDone {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("burst did not drain in time")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Deterministic pipeline + identical specs ⇒ identical results.
	first := getResult(t, ts, ids[0])
	for _, id := range ids[1:] {
		res := getResult(t, ts, id)
		if res.Result.MatchedPairs != first.Result.MatchedPairs || len(res.Matches) != len(first.Matches) {
			t.Errorf("job %s diverged: %d matches vs %d", id, len(res.Matches), len(first.Matches))
		}
	}
}

// TestServiceTierJob: a job submitted with the triage tier on reports
// the tier's accounting in its result and feeds the tier counters in
// /metrics — which no longer has a counter for free Match labels; a tier
// spec with an out-of-range threshold is rejected at submit.
func TestServiceTierJob(t *testing.T) {
	dataDir := writeDataDir(t, 120, 11)
	_, ts := newTestServer(t, Config{Dir: t.TempDir(), DataDir: dataDir, Workers: 1})

	spec := testSpec()
	spec.Tier = "bloom"
	job := submit(t, ts, spec)
	waitState(t, ts, job.ID, StateDone)
	res := getResult(t, ts, job.ID)

	if res.Result.Tier != "bloom" {
		t.Errorf("result tier = %q, want bloom", res.Result.Tier)
	}
	if res.Result.TierNonMatched+res.Result.TierUncertainPairs == 0 {
		t.Error("tier counters all zero; the tier never ran")
	}

	mt, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mt.Body)
	mt.Body.Close()
	for _, want := range []string{
		"pprl_tier_nonmatched_pairs_total",
		"pprl_tier_uncertain_pairs_total",
	} {
		if !strings.Contains(string(mraw), want) {
			t.Errorf("metrics missing %q:\n%s", want, mraw)
		}
	}
	if strings.Contains(string(mraw), "pprl_tier_matched") {
		t.Errorf("metrics still count free tier Match labels:\n%s", mraw)
	}

	bad := testSpec()
	bad.Tier = "bloom"
	bad.TierLow = 1
	if _, code := submitCode(t, ts, bad); code != http.StatusBadRequest {
		t.Errorf("tier_low 1 accepted with HTTP %d", code)
	}
	unknown := testSpec()
	unknown.Tier = "paillier"
	if _, code := submitCode(t, ts, unknown); code != http.StatusBadRequest {
		t.Errorf("unknown tier mode accepted with HTTP %d", code)
	}
}

// TestServiceDistributedFleet runs the same job in-process and striped
// across a two-worker fleet, and requires identical output: the fleet is
// a transport, not a semantics change. A worker whose link drops rejoins
// by dialing again, and the next job matches too. It also checks the
// per-worker chunk counters surface on /metrics and that a fleetless
// daemon rejects distributed submissions at the door.
func TestServiceDistributedFleet(t *testing.T) {
	dataDir := writeDataDir(t, 160, 11)

	// Baseline: the identical spec on a plain daemon.
	_, tsLocal := newTestServer(t, Config{Dir: t.TempDir(), DataDir: dataDir})
	base := submit(t, tsLocal, testSpec())
	waitState(t, tsLocal, base.ID, StateDone)
	baseRes := getResult(t, tsLocal, base.ID)

	s, ts := newTestServer(t, Config{
		Dir:             t.TempDir(),
		DataDir:         dataDir,
		FleetListen:     "127.0.0.1:0",
		FleetMinWorkers: 2,
	})
	join := func(name string) net.Conn {
		conn, err := net.Dial("tcp", s.fleetLn.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		go distrib.ServeWorker(conn, distrib.WorkerOptions{
			Name:           name,
			HeartbeatEvery: 50 * time.Millisecond,
		})
		return conn
	}
	fw1 := join("fw1")
	join("fw2")

	spec := testSpec()
	spec.Distributed = true
	runFleetJob := func(leg string) {
		t.Helper()
		job := submit(t, ts, spec)
		waitState(t, ts, job.ID, StateDone)
		res := getResult(t, ts, job.ID)
		if !reflect.DeepEqual(res.Matches, baseRes.Matches) {
			t.Errorf("%s: distributed matches diverge from local run:\n fleet %v\n local %v",
				leg, res.Matches, baseRes.Matches)
		}
		if res.Result.Invocations != baseRes.Result.Invocations {
			t.Errorf("%s: distributed invocations = %d, local = %d",
				leg, res.Result.Invocations, baseRes.Result.Invocations)
		}
		if res.Result.MatchedPairs != baseRes.Result.MatchedPairs {
			t.Errorf("%s: distributed matched pairs = %d, local = %d",
				leg, res.Result.MatchedPairs, baseRes.Result.MatchedPairs)
		}
	}
	runFleetJob("first job")

	mt, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mt.Body)
	mt.Body.Close()
	if !strings.Contains(string(mraw), `pprl_worker_chunks_total{worker="`) {
		t.Errorf("metrics missing per-worker chunk counters:\n%s", mraw)
	}
	if !strings.Contains(string(mraw), `pprl_worker_heartbeat_seconds{worker="fw1"}`) {
		t.Errorf("metrics missing worker heartbeat gauge:\n%s", mraw)
	}

	// fw1's link drops; a fresh fw1 dials in, and the fleet is whole again.
	fw1.Close()
	waitFleet(t, s, "fw2")
	join("fw1")
	runFleetJob("after fw1 rejoined")
	if got := s.pool.Workers(); !slices.Equal(got, []string{"fw1", "fw2"}) {
		t.Errorf("fleet after rejoin = %v, want [fw1 fw2]", got)
	}

	// A daemon without a fleet must refuse distributed work up front: the
	// spec is well-formed but this daemon cannot honor it — 422, not 400.
	if _, code := submitCode(t, tsLocal, spec); code != http.StatusUnprocessableEntity {
		t.Errorf("fleetless daemon refused distributed job with HTTP %d, want 422", code)
	}
}

// waitFleet polls until the daemon's registered workers are exactly want.
func waitFleet(t *testing.T, s *Server, want ...string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !slices.Equal(s.pool.Workers(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("fleet is %v, waiting for %v", s.pool.Workers(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
