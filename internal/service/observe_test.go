package service

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pprl/internal/cliutil"
	"pprl/internal/distrib"
	"pprl/internal/journal"
	"pprl/internal/testkit"
)

// scrapeMetrics returns /metrics as its samples by series, labels
// included: `name{k="v"}` → value.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		name, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		samples[name] = f
	}
	return samples
}

// scrapeValue is one series' sample on /metrics; a missing one fails.
func scrapeValue(t *testing.T, ts *httptest.Server, series string) int64 {
	t.Helper()
	v, ok := scrapeMetrics(t, ts)[series]
	if !ok {
		t.Fatalf("/metrics has no %s", series)
	}
	return int64(v)
}

// TestSixAnswersFromHTTP runs a job, a two-worker fleet job whose one
// worker sits behind a slow link, a job that fails and a live dataset, and
// answers the north star's six questions from /metrics and the status
// documents alone: the stage a run is in, each stage's time, the latency
// distribution of the comparator calls, the allowance left, the slow worker
// by name, and why a run failed.
func TestSixAnswersFromHTTP(t *testing.T) {
	dataDir := writeDataDir(t, 120, 7)
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	s, ts := newTestServer(t, Config{
		Dir: t.TempDir(), DataDir: dataDir, FleetListen: "127.0.0.1:0", FleetMinWorkers: 2,
		Hooks: Hooks{WrapJournal: func(id string, w *journal.Writer) journal.Sink {
			if id == "job-000001" {
				return &gatedSink{Sink: w, gate: gate}
			}
			return w
		}},
	})
	for name, delay := range map[string]time.Duration{"fast": 0, "slow": 20 * time.Millisecond} {
		conn, err := net.Dial("tcp", s.fleetLn.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		go distrib.ServeWorker(testkit.DelayConn{Conn: conn, Delay: delay}, distrib.WorkerOptions{Name: name, HeartbeatEvery: 50 * time.Millisecond})
	}

	// Stage and allowance left: a job held at its first purchase says it
	// is in the smc stage with its whole allowance left.
	held := submit(t, ts, testSpec())
	waitState(t, ts, held.ID, StateRunning)
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		if p := getStatus(t, ts, held.ID).Progress; p != nil && p.Phase == "smc" {
			if left := p.Total - p.Done; p.Total != 200 || left != 200 {
				t.Errorf("held job: allowance %d, %d left; want 200 of 200", p.Total, left)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the held job never reached the smc stage")
		}
	}
	openGate()
	done := waitState(t, ts, held.ID, StateDone)
	if p := done.Progress; p == nil || p.Done != p.Total {
		t.Errorf("a finished job has allowance left: %+v", p)
	}

	fleet := testSpec()
	fleet.Distributed = true
	waitState(t, ts, submit(t, ts, fleet).ID, StateDone)

	// Why it failed: the status says, and the lifecycle count moves.
	broken := testSpec()
	broken.BobPath = "missing.csv"
	failed := waitState(t, ts, submit(t, ts, broken).ID, StateFailed)
	if !strings.Contains(failed.Error, "missing.csv") {
		t.Errorf("failed job's error %q does not name its cause", failed.Error)
	}

	ds := registerDataset(t, ts, DatasetSpec{Params: cliutil.Params{Allowance: 5000}})
	for _, req := range []AppendRequest{{Side: "alice", Path: "a.csv"}, {Side: "bob", Path: "b.csv"}} {
		if code, _ := appendBatch(t, ts, ds.ID, req); code != http.StatusAccepted {
			t.Fatalf("append %s returned %d", req.Path, code)
		}
	}
	live := waitDataset(t, ts, ds.ID, "applied", func(st DatasetStatus) bool { return st.Applied == 2 })
	if st := live.Stats; st.Used == 0 || st.Used > 5000 || st.Latency.Count() == 0 {
		t.Errorf("dataset: used %d of 5000, %d comparator calls timed", st.Used, st.Latency.Count())
	}

	m := scrapeMetrics(t, ts)
	if m["pprl_jobs_failed_total"] != 1 || m["pprl_jobs_done_total"] != 2 {
		t.Errorf("lifecycle counts: failed %v done %v, want 1 and 2", m["pprl_jobs_failed_total"], m["pprl_jobs_done_total"])
	}
	// Stage times: the jobs' stages and the dataset's, by name.
	for _, stage := range []string{"anonymize-alice", "blocking", "smc", "ingest", "commit"} {
		if m[`pprl_stage_seconds_total{stage="`+stage+`"}`] <= 0 {
			t.Errorf("no time for stage %s on /metrics", stage)
		}
	}
	if res := getResult(t, ts, held.ID).Result; res.Stages.Of("smc") <= 0 || res.SMCLatency.Count() == 0 {
		t.Errorf("the result record lacks stage times or latencies: %v %v", res.Stages, res.SMCLatency.String())
	}
	// The latency distribution: every call of both jobs and the dataset.
	calls := m["pprl_smc_call_seconds_count"]
	if calls < 3 || m[`pprl_smc_call_seconds_bucket{le="+Inf"}`] != calls || m["pprl_smc_call_seconds_sum"] <= 0 {
		t.Errorf("smc_call_seconds: count %v, +Inf %v, sum %v", calls, m[`pprl_smc_call_seconds_bucket{le="+Inf"}`], m["pprl_smc_call_seconds_sum"])
	}
	// The slow worker, by name: the higher mean chunk round trip.
	slowest, worst := "", 0.0
	for _, w := range []string{"fast", "slow"} {
		n := m[`pprl_worker_chunk_seconds_count{worker="`+w+`"}`]
		if n == 0 || m[`pprl_worker_chunks_total{worker="`+w+`"}`] != n {
			t.Fatalf("worker %s: %v chunk round trips, %v chunks", w, n, m[`pprl_worker_chunks_total{worker="`+w+`"}`])
		}
		if mean := m[`pprl_worker_chunk_seconds_sum{worker="`+w+`"}`] / n; mean > worst {
			slowest, worst = w, mean
		}
	}
	if slowest != "slow" || worst < 0.02 {
		t.Errorf("the slowest worker reads %q at %.3fs a chunk, want slow at ≥ 0.02s", slowest, worst)
	}
}
