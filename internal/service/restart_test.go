package service

import (
	"bytes"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pprl/internal/cliutil"
	"pprl/internal/distrib"
	"pprl/internal/journal"
	"pprl/internal/testkit"
)

// TestServiceRestartRecovery is the acceptance path for journal-backed
// restarts: a job hard-stopped mid-SMC (simulated kill that leaves only
// the journaled prefix on disk) is re-queued by the next daemon start,
// resumes from its journal, completes with verdicts identical to an
// uninterrupted control run, and never re-spends the allowance already
// purchased — exact accounting: replayed + live = control's live total.
func TestServiceRestartRecovery(t *testing.T) {
	dataDir := writeDataDir(t, 120, 21)
	spec := testSpec()
	const crashAfter = 40 // verdicts journaled before the simulated kill

	// Control: the same spec, uninterrupted.
	_, control := newTestServer(t, Config{Dir: t.TempDir(), DataDir: dataDir, JournalSync: 1})
	cid := submit(t, control, spec).ID
	waitState(t, control, cid, StateDone)
	want := getResult(t, control, cid)
	if want.Result.Invocations <= crashAfter {
		t.Fatalf("control spent only %d comparisons; crash point %d would not interrupt",
			want.Result.Invocations, crashAfter)
	}

	// Crash run: the journal sink dies after crashAfter verdicts. Like a
	// SIGKILL, no terminal state reaches disk — only the journaled prefix.
	dir := t.TempDir()
	s1, err := New(Config{
		Dir: dir, DataDir: dataDir, JournalSync: 1,
		Hooks: Hooks{
			WrapJournal: func(id string, w *journal.Writer) journal.Sink {
				return &testkit.CrashSink{W: w, Remaining: crashAfter}
			},
			HardStop: testkit.ErrCrash,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	jid := submit(t, ts1, spec).ID
	interrupted := waitState(t, ts1, jid, StateInterrupted)
	if interrupted.Error == "" {
		t.Error("interrupted job carries no error")
	}
	ts1.Close()
	s1.Drain()
	// An older daemon's spec.json could name a blocking engine and the
	// result encoding. Recovery decodes leniently, and the manifest never
	// recorded either field: the job resumes on the one index, packed, as
	// every job now runs, to the control's result.
	specPath := filepath.Join(s1.store.Dir(jobKind, jid), "spec.json")
	raw, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte(`"alice_path":`), []byte(`"blocking": "dense", "packing": "off", "alice_path":`), 1)
	if err := os.WriteFile(specPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart on the same service root, crash hooks gone. Recovery must
	// re-queue the job and the journal replay must carry the prefix.
	s2, err := New(Config{Dir: dir, DataDir: dataDir, JournalSync: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Drain()
	}()
	recovered := waitState(t, ts2, jid, StateDone)
	if recovered.Resumed == 0 {
		t.Error("recovered job does not report a resumption")
	}

	got := getResult(t, ts2, jid)

	// Identical verdicts: the matched pair set equals the control's.
	if !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Errorf("resumed matches diverge from control: %d vs %d pairs",
			len(got.Matches), len(want.Matches))
	}
	if got.Result.MatchedPairs != want.Result.MatchedPairs ||
		got.Result.TotalPairs != want.Result.TotalPairs ||
		got.Result.Allowance != want.Result.Allowance {
		t.Errorf("resumed summary diverges: %+v vs %+v", got.Result, want.Result)
	}
	if !reflect.DeepEqual(got.Evaluation, want.Evaluation) {
		t.Errorf("resumed evaluation diverges: %+v vs %+v", got.Evaluation, want.Evaluation)
	}

	// Exact allowance accounting: the crashed run journaled crashAfter
	// verdicts; the resumed run replays exactly those and buys only the
	// remainder live. Nothing is purchased twice.
	if got.Result.Resume.ReplayedAllowance != crashAfter {
		t.Errorf("replayed allowance = %d, want %d", got.Result.Resume.ReplayedAllowance, crashAfter)
	}
	if live := got.Result.Invocations; live+crashAfter != want.Result.Invocations {
		t.Errorf("live %d + replayed %d != control's %d comparisons",
			live, crashAfter, want.Result.Invocations)
	}

	// The daemon's counters agree with the per-job accounting.
	if v := s2.mSMCReplayed.Value(); v != crashAfter {
		t.Errorf("smc_replayed_allowance_total = %d, want %d", v, crashAfter)
	}
	if v := s2.mSMCPurchased.Value(); v+crashAfter != want.Result.Invocations {
		t.Errorf("smc_comparisons_total = %d, want %d", v, want.Result.Invocations-crashAfter)
	}
}

// TestServiceDrainResume: a graceful drain (SIGTERM path) checkpoints a
// running job; the next daemon start completes it with full accounting.
func TestServiceDrainResume(t *testing.T) {
	dataDir := writeDataDir(t, 120, 33)
	spec := testSpec()
	spec.Allowance = 100000 // big enough that drain lands mid-run

	dir := t.TempDir()
	s1, err := New(Config{Dir: dir, DataDir: dataDir, JournalSync: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	jid := submit(t, ts1, spec).ID
	waitState(t, ts1, jid, StateRunning, StateDone)
	s1.Drain() // what the daemon does on SIGTERM
	ts1.Close()

	j, err := lookup(s1, s1.jobs, jobKind, jid)
	if err != nil {
		t.Fatal(err)
	}
	st := j.Status()
	if st.State != StateInterrupted && st.State != StateDone {
		t.Fatalf("drained job settled as %q", st.State)
	}

	s2, err := New(Config{Dir: dir, DataDir: dataDir, JournalSync: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Drain()
	}()
	done := waitState(t, ts2, jid, StateDone)
	if st.State == StateInterrupted && done.Resumed == 0 {
		t.Error("resumed job does not report a resumption")
	}
	res := getResult(t, ts2, jid)
	if res.Result.MatchedPairs != int64(len(res.Matches)) {
		t.Errorf("matched_pairs %d != len(matches) %d", res.Result.MatchedPairs, len(res.Matches))
	}
	if total := res.Result.Invocations + res.Result.Resume.ReplayedAllowance; total > res.Result.Allowance {
		t.Errorf("spent %d > allowance %d", total, res.Result.Allowance)
	}
}

// TestServiceFleetWaitInterrupted: a distributed job still waiting for
// its fleet is interrupted, not failed, by a drain — nothing terminal
// reaches disk, and the next start re-queues it and runs it once a worker
// registers — and a DELETE in the same wait settles it canceled.
func TestServiceFleetWaitInterrupted(t *testing.T) {
	dataDir := writeDataDir(t, 120, 35)
	spec := testSpec()
	spec.Distributed = true
	dir := t.TempDir()
	cfg := Config{Dir: dir, DataDir: dataDir, FleetListen: "127.0.0.1:0"}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	jid := submit(t, ts1, spec).ID
	waitState(t, ts1, jid, StateRunning)
	s1.Drain() // no worker ever registered
	ts1.Close()
	j, err := lookup(s1, s1.jobs, jobKind, jid)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != StateInterrupted {
		t.Fatalf("drained fleet wait settled as %q (%s), want interrupted", st.State, st.Error)
	}

	s2, ts2 := newTestServer(t, cfg)
	if st := getStatus(t, ts2, jid); st.Resumed != 1 {
		t.Fatalf("restart did not re-queue the job: %+v", st)
	}
	conn, err := net.Dial("tcp", s2.FleetAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go distrib.ServeWorker(conn, distrib.WorkerOptions{Name: "late", HeartbeatEvery: 50 * time.Millisecond})
	waitState(t, ts2, jid, StateDone)

	// DELETE while the job waits on a fleet that has lost its worker.
	conn.Close()
	waitFleet(t, s2)
	jid = submit(t, ts2, spec).ID
	waitState(t, ts2, jid, StateRunning)
	req, err := http.NewRequest(http.MethodDelete, ts2.URL+"/v1/jobs/"+jid, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts2, jid, StateCanceled)
}

// lockedBuffer is a log sink the test reads while the daemon writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTerminalWriteFailureIsKept: a job whose verdict cannot reach disk —
// a directory sits at status.json, so the rename fails even for root —
// still settles failed in memory, and both the log and its status say the
// verdict was not persisted (a restart will run it again).
func TestTerminalWriteFailureIsKept(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := register(st, jobKind, func(id string, seq int) specFile {
		return specFile{ID: id, Seq: seq, Spec: JobSpec{Job: cliutil.Job{AlicePath: "missing-a.csv", BobPath: "missing-b.csv"}}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(st.Dir(jobKind, sf.ID), "status.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	var logs lockedBuffer
	_, ts := newTestServer(t, Config{Dir: dir, DataDir: t.TempDir(), Logger: log.New(&logs, "", 0)})
	got := waitState(t, ts, sf.ID, StateFailed)
	if !strings.Contains(got.Error, "reading alice") || !strings.Contains(got.Error, "; persisting terminal state: ") {
		t.Errorf("failed job's error %q does not say its verdict was lost", got.Error)
	}
	if want := "job=" + sf.ID + " persisting terminal state: "; !strings.Contains(logs.String(), want) {
		t.Errorf("log lacks %q:\n%s", want, logs.String())
	}
}
