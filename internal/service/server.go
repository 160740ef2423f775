package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pprl/internal/cliutil"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/distrib"
	"pprl/internal/incremental"
	"pprl/internal/journal"
	"pprl/internal/metrics"
)

// Hooks are test seams. Production leaves them zero.
type Hooks struct {
	// WrapJournal, when set, wraps each job's journal writer before the
	// core pipeline sees it. Tests inject testkit.CrashSink here to
	// simulate a daemon killed mid-SMC.
	WrapJournal func(jobID string, w *journal.Writer) journal.Sink
	// WrapDatasetJournal is the same seam for live datasets' ingest
	// journals (the incremental engine records through a BatchSink).
	WrapDatasetJournal func(datasetID string, w *journal.Writer) journal.BatchSink
	// HardStop is the error a wrapped journal returns to simulate that
	// kill. A job failing with it settles in memory as interrupted but —
	// exactly like a SIGKILL — writes no terminal state to disk, so the
	// next daemon start resumes it.
	HardStop error
}

// Config configures a Server.
type Config struct {
	// Dir is the service root; job state lives under Dir/jobs, dataset
	// state under Dir/datasets.
	Dir string
	// DataDir, when set, confines spec dataset references to this
	// directory.
	DataDir string
	// Workers bounds concurrent jobs (default 1).
	Workers int
	// JournalSync is the journals' SyncEvery (0 = the journal default): a
	// job's journal is written and fsynced at that cadence, a dataset's
	// written at it and fsynced once per batch, at the commit.
	JournalSync int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// FleetListen, when set, binds a coordinator listener for SMC worker
	// registrations (pprl-party -role worker -coordinator <addr>).
	// Workers dial the daemon, so a restarted worker registers again.
	FleetListen string
	// FleetMinWorkers is how many registered workers a distributed job
	// waits for before shipping records (default 1).
	FleetMinWorkers int
	// Logger receives job and fleet lifecycle lines with correlation ids
	// (job=… chunk=… worker=…); nil is silent.
	Logger *log.Logger
	// Hooks are test seams; leave zero in production.
	Hooks Hooks
}

// Server is the linkage job service: it owns the store, the scheduler,
// and the HTTP API. Create one with New, serve Handler, and stop with
// Drain.
type Server struct {
	cfg   Config
	store *Store
	sched *Scheduler

	mu       sync.Mutex
	jobs     map[string]*Job
	byKey    map[string]string // idempotency key → job ID
	datasets map[string]*liveDataset

	// stop ends every dataset drainer and event stream at Drain; dsWG
	// waits for the drainers.
	stop chan struct{}
	dsWG sync.WaitGroup

	// The job lifecycle and request counts are all /metrics keeps for
	// itself; every other series is read off the records at scrape time.
	jobsSubmitted, jobsDone, jobsFailed, jobsCanceled, jobsRecovered, requests atomic.Int64

	// pool coordinates the SMC worker fleet, fleetLn is its registration
	// listener and fleetDone closes when Serve returns; all nil when no
	// fleet is configured.
	pool      *distrib.Pool
	fleetLn   net.Listener
	fleetDone chan struct{}
}

// New opens the service root, recovers jobs and datasets left behind by a
// previous daemon, and starts the worker pool. In-flight jobs from before the
// restart re-enter the queue in their original FIFO order and resume
// from their journals.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	store, err := NewStore(cfg.Dir, cfg.DataDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		store:    store,
		jobs:     make(map[string]*Job),
		byKey:    make(map[string]string),
		datasets: make(map[string]*liveDataset),
		stop:     make(chan struct{}),
	}
	if cfg.FleetListen != "" {
		if err := s.startFleet(); err != nil {
			return nil, err
		}
	}

	s.sched = NewScheduler(cfg.Workers, s.runJob)
	if err := s.recover(); err != nil {
		s.Drain()
		return nil, err
	}
	return s, nil
}

// recover rebuilds every resource the store holds. A job with a result is
// done and one with a verdict keeps it; any other job — including one
// whose journal holds a partial (or even complete) run — is re-queued, and
// the journal replay guarantees already-purchased SMC verdicts are never
// bought again. A dataset re-Appends its stored schedule unless a verdict
// (or a DP registration, which can never start) leaves it failed and
// read-only.
func (s *Server) recover() error {
	jobs, err := scan[specFile](s.store, jobKind)
	if err != nil {
		return err
	}
	for _, f := range jobs {
		j := newJob(f.ID, f.Head.Spec, f.Head.SubmittedAt)
		s.addJob(j)
		switch {
		case s.store.hasResult(f.ID):
			j.finish(StateDone, "")
		case f.Verdict.State != "":
			j.finish(f.Verdict.State, f.Verdict.Error)
		default: // in flight at the previous daemon's death
			j.markRecovered()
			s.jobsRecovered.Add(1)
			if err := s.sched.Enqueue(j); err != nil {
				return err
			}
		}
	}
	datasets, err := scan[datasetFile](s.store, datasetKind)
	if err != nil {
		return err
	}
	for _, f := range datasets {
		stored, err := s.store.ReadBatchEntries(f.ID)
		if err != nil {
			return err
		}
		ld := newLiveDataset(f.Head, len(stored))
		ld.recovered = true
		s.datasets[ld.ID] = ld
		failed := f.Verdict.Error
		if f.Verdict.State == "" {
			// A DP registration can never start: that dataset alone comes
			// back failed.
			if err := s.startDataset(ld, stored); errors.Is(err, ErrNoDP) {
				failed = err.Error()
			} else if err != nil {
				return err
			}
		}
		if ld.eng == nil {
			// Surface the dataset read-only instead of replaying into the
			// same wall.
			ld.state, ld.errMsg = DatasetFailed, failed
			continue
		}
		s.logf("dataset=%s recovered batches=%d", ld.ID, len(stored))
	}
	return nil
}

// addJob registers j under its id and idempotency key.
func (s *Server) addJob(j *Job) {
	s.jobs[j.ID] = j
	if key := j.Spec.IdempotencyKey; key != "" {
		s.byKey[key] = j.ID
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// startFleet brings the SMC worker coordinator up: a registration
// listener on FleetListen that workers dial.
func (s *Server) startFleet() error {
	ln, err := net.Listen("tcp", s.cfg.FleetListen)
	if err != nil {
		return fmt.Errorf("service: fleet listener: %w", err)
	}
	s.pool = distrib.NewPool(distrib.PoolOptions{Logger: s.cfg.Logger})
	s.fleetLn, s.fleetDone = ln, make(chan struct{})
	s.logf("fleet: accepting worker registrations on %s", ln.Addr())
	go func() {
		defer close(s.fleetDone)
		s.logf("fleet: registrations stopped: %v", s.pool.Serve(ln))
	}()
	return nil
}

// Drain stops the scheduler for shutdown: running jobs checkpoint their
// journals and settle as interrupted; queued jobs stay on disk. Both
// resume on the next daemon start. The worker fleet, if any, is
// released — workers exit cleanly on the hangup.
func (s *Server) Drain() {
	if s.sched != nil {
		s.sched.Drain()
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.dsWG.Wait()
	if s.pool != nil {
		s.pool.Close()
		<-s.fleetDone
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/jobs", apiHandler(s.handleSubmit))
	mux.Handle("GET /v1/jobs", apiHandler(s.handleList))
	mux.Handle("GET /v1/jobs/{id}", apiHandler(s.handleStatus))
	mux.Handle("DELETE /v1/jobs/{id}", apiHandler(s.handleCancel))
	mux.Handle("GET /v1/jobs/{id}/result", apiHandler(s.handleResult))
	mux.Handle("GET /v1/jobs/{id}/events", apiHandler(s.handleEvents))
	mux.Handle("POST /v1/datasets", apiHandler(s.handleDatasetCreate))
	mux.Handle("GET /v1/datasets", apiHandler(s.handleDatasetList))
	mux.Handle("GET /v1/datasets/{id}", apiHandler(s.handleDatasetStatus))
	mux.Handle("POST /v1/datasets/{id}/records", apiHandler(s.handleDatasetAppend))
	mux.Handle("GET /v1/datasets/{id}/deltas", apiHandler(s.handleDatasetDeltas))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return withRequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		mux.ServeHTTP(w, r)
	}))
}

// apiHandler is an API route: it writes its response, or returns an
// error — classified with Errf, or an internal one — for writeErr to
// render.
type apiHandler func(w http.ResponseWriter, r *http.Request) error

func (h apiHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if err := h(w, r); err != nil {
		writeErr(w, err)
	}
}

func writeAPI(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// maxSpecBytes bounds a request body; bodies are a page of JSON, not
// record data.
const maxSpecBytes = 1 << 20

// decodeBody decodes a request body of at most maxSpecBytes into v,
// refusing unknown fields.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return Errf(KindBadRequest, "decoding %s: %v", what, err)
	}
	return nil
}

// lookup finds a registered resource of kind k.
func lookup[T any](s *Server, m map[string]T, k *kind, id string) (T, error) {
	s.mu.Lock()
	v, ok := m[id]
	s.mu.Unlock()
	if !ok {
		return v, Errf(KindNotFound, "no such %s", k.noun)
	}
	return v, nil
}

// list renders every registered resource in m, in id (FIFO) order.
func list[T, V any](s *Server, m map[string]T, view func(T) V) []V {
	s.mu.Lock()
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	items := make([]T, len(ids))
	for i, id := range ids {
		items[i] = m[id]
	}
	s.mu.Unlock()
	views := make([]V, len(items))
	for i, it := range items {
		views[i] = view(it)
	}
	return views
}

// stream serves a server-sent event stream: it writes what emit renders,
// then waits for the channel watch returned before that render to close,
// until emit reports its event the last (or a write failed), the client
// leaves or the daemon drains.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, watch func() <-chan struct{}, emit func(io.Writer) (last bool)) error {
	flusher, ok := w.(http.Flusher)
	if !ok {
		return Errf(KindInternal, "streaming unsupported")
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		changed := watch()
		last := emit(w)
		flusher.Flush()
		if last {
			return nil
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return nil
		case <-s.stop:
			return nil
		}
	}
}

// persistTerminal writes a resource's terminal verdict, after which a
// restart neither re-runs nor replays it. A failed write is logged and
// returned joined to msg, so the in-memory status says the verdict will
// not outlive this process.
func (s *Server) persistTerminal(k *kind, id string, state State, msg string) string {
	if err := s.store.WriteTerminal(k, id, state, msg); err != nil {
		s.logf("%s=%s persisting terminal state: %v", k.noun, id, err)
		return msg + "; persisting terminal state: " + err.Error()
	}
	return msg
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) error {
	var spec JobSpec
	if err := decodeBody(w, r, "spec", &spec); err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return Errf(KindBadRequest, "%v", err)
	}
	if spec.Distributed && s.pool == nil {
		// The spec is well-formed; it's this daemon that can't honor it —
		// 422, terminal, so clients don't retry into the same wall.
		return Errf(KindInvalid, "distributed jobs need a worker fleet: start the daemon with -fleet-listen")
	}
	// Reject unresolvable dataset references at submit time rather than
	// letting the job fail later in the queue.
	for _, ref := range []string{spec.AlicePath, spec.BobPath} {
		if _, err := s.store.ResolveData(ref); err != nil {
			return Errf(KindBadRequest, "%v", err)
		}
	}

	s.mu.Lock()
	if id, ok := s.byKey[spec.IdempotencyKey]; ok {
		j := s.jobs[id]
		s.mu.Unlock()
		writeAPI(w, http.StatusOK, j.Status())
		return nil
	}
	// Holding the lock across register serializes submissions, keeping the
	// key→job mapping race-free; job creation is two small file writes.
	sf, err := register(s.store, jobKind, func(id string, seq int) specFile {
		return specFile{ID: id, Seq: seq, SubmittedAt: time.Now().UTC(), Spec: spec}
	})
	if err != nil {
		s.mu.Unlock()
		return err
	}
	j := newJob(sf.ID, spec, sf.SubmittedAt)
	s.addJob(j)
	s.mu.Unlock()

	if err := s.sched.Enqueue(j); err != nil {
		return Errf(KindUnavailable, "%v", err)
	}
	s.jobsSubmitted.Add(1)
	s.logf("req=%s job=%s state=queued", requestID(r.Context()), j.ID)
	writeAPI(w, http.StatusCreated, j.Status())
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) error {
	writeAPI(w, http.StatusOK, list(s, s.jobs, (*Job).Status))
	return nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) error {
	j, err := lookup(s, s.jobs, jobKind, r.PathValue("id"))
	if err != nil {
		return err
	}
	writeAPI(w, http.StatusOK, j.Status())
	return nil
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) error {
	j, err := lookup(s, s.jobs, jobKind, r.PathValue("id"))
	if err != nil {
		return err
	}
	if wasQueued := s.sched.Cancel(j); wasQueued {
		// A queued job settles here; a running one settles on its worker
		// once the engine checkpoints.
		s.settleJob(j, StateCanceled, "canceled while queued")
	}
	s.logf("req=%s job=%s cancel requested", requestID(r.Context()), j.ID)
	writeAPI(w, http.StatusAccepted, j.Status())
	return nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) error {
	j, err := lookup(s, s.jobs, jobKind, r.PathValue("id"))
	if err != nil {
		return err
	}
	if st := j.State(); st != StateDone {
		return Errf(KindConflict, "job is %s, not done", st)
	}
	res, err := s.store.ReadResult(j.ID)
	if err != nil {
		return err
	}
	writeAPI(w, http.StatusOK, res)
	return nil
}

// handleEvents streams job status updates as server-sent events: one
// `data:` line per progress change, the last one once the job settles.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) error {
	j, err := lookup(s, s.jobs, jobKind, r.PathValue("id"))
	if err != nil {
		return err
	}
	return s.stream(w, r, j.Progress.Watch, func(w io.Writer) bool {
		st := j.Status()
		raw, _ := json.Marshal(st) // a JobStatus always encodes
		_, err := fmt.Fprintf(w, "data: %s\n\n", raw)
		return err != nil || (st.State != StateQueued && st.State != StateRunning)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, running := s.sched.Counts()
	writeAPI(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"workers": s.sched.Workers(),
		"queued":  queued,
		"running": running,
	})
}

// scrape is one /metrics render's reading of the records: the
// scheduler's counts, the result record of every job this process
// completed, the live datasets' stats and the fleet's worker records.
type scrape struct {
	*Server
	queued, running, registered int64
	jobs                        []core.ResultJSON
	stats                       []incremental.Stats
	workers                     []distrib.WorkerRecord
}

// sum folds f, if set, over the records: a series of every completed job
// or live dataset. "Excluding journal replays" is a total less its Replay
// share.
func sum[T any](records []T, f func(*T) int64) (n int64) {
	for i := 0; f != nil && i < len(records); i++ {
		n += f(&records[i])
	}
	return n
}

// series are the /metrics series read off a scrape, in order: each is a
// value of the scrape, a sum over the jobs' records or the datasets'
// stats, or one sample per worker record.
var series = []struct {
	name, typ, help string
	value           func(c *scrape) int64
	job             func(r *core.ResultJSON) int64
	ds              func(st *incremental.Stats) int64
	worker          func(w *distrib.WorkerRecord) float64
}{
	{name: "jobs_submitted_total", typ: "counter", help: "Jobs accepted over the API.", value: func(c *scrape) int64 { return c.jobsSubmitted.Load() }},
	{name: "jobs_done_total", typ: "counter", help: "Jobs completed successfully.", value: func(c *scrape) int64 { return c.jobsDone.Load() }},
	{name: "jobs_failed_total", typ: "counter", help: "Jobs ended by an error.", value: func(c *scrape) int64 { return c.jobsFailed.Load() }},
	{name: "jobs_canceled_total", typ: "counter", help: "Jobs ended by DELETE.", value: func(c *scrape) int64 { return c.jobsCanceled.Load() }},
	{name: "jobs_recovered_total", typ: "counter", help: "Jobs re-queued from their journals at daemon start.", value: func(c *scrape) int64 { return c.jobsRecovered.Load() }},
	{name: "jobs_queued", typ: "gauge", help: "Jobs waiting for a worker slot.", value: func(c *scrape) int64 { return c.queued }},
	{name: "jobs_running", typ: "gauge", help: "Jobs executing right now.", value: func(c *scrape) int64 { return c.running }},
	{name: "http_requests_total", typ: "counter", help: "API requests served.", value: func(c *scrape) int64 { return c.requests.Load() }},
	{name: "smc_comparisons_total", typ: "counter", help: "Live SMC comparisons purchased across completed jobs.", job: func(r *core.ResultJSON) int64 { return r.Invocations }},
	{name: "smc_replayed_allowance_total", typ: "counter", help: "Allowance satisfied from journals instead of live SMC across completed jobs.", job: func(r *core.ResultJSON) int64 { return r.Resume.ReplayedAllowance }},
	{name: "blocking_classes_total", typ: "counter", help: "Equivalence classes blocked across completed jobs (both relations).", job: func(r *core.ResultJSON) int64 { return int64(r.Blocking.RClasses + r.Blocking.SClasses) }},
	{name: "blocking_class_pairs_total", typ: "counter", help: "Class pairs in the blocking candidate space across completed jobs.", job: func(r *core.ResultJSON) int64 { return r.Blocking.ClassPairs }},
	{name: "blocking_rule_evaluations_total", typ: "counter", help: "Class pairs the slack rule actually evaluated (indexed jobs skip pruned pairs).", job: func(r *core.ResultJSON) int64 { return r.Blocking.RuleEvaluations }},
	{name: "blocking_pruned_class_pairs_total", typ: "counter", help: "Class pairs the hierarchy index pruned without a rule evaluation.", job: func(r *core.ResultJSON) int64 { return r.Blocking.PrunedClassPairs }},
	{name: "blocking_matched_pairs_total", typ: "counter", help: "Record pairs blocking labeled Match across completed jobs.", job: func(r *core.ResultJSON) int64 { return r.BlockingMatchedPairs }},
	{name: "blocking_nonmatched_pairs_total", typ: "counter", help: "Record pairs blocking labeled NonMatch across completed jobs.", job: func(r *core.ResultJSON) int64 { return r.TotalPairs - r.UnknownPairs - r.BlockingMatchedPairs }},
	{name: "blocking_unknown_pairs_total", typ: "counter", help: "Record pairs blocking left Unknown for SMC across completed jobs.", job: func(r *core.ResultJSON) int64 { return r.UnknownPairs }},
	{name: "tier_nonmatched_pairs_total", typ: "counter", help: "Unknown pairs the triage tier labeled NonMatch for free across completed jobs.", job: func(r *core.ResultJSON) int64 { return r.TierNonMatched }},
	{name: "tier_uncertain_pairs_total", typ: "counter", help: "Unknown pairs the tier left for the SMC allowance across completed jobs.", job: func(r *core.ResultJSON) int64 { return r.TierUncertainPairs }},
	{name: "datasets_registered_total", typ: "counter", help: "Live datasets registered over the API.", value: func(c *scrape) int64 { return c.registered }},
	{name: "dataset_batches_total", typ: "counter", help: "Append batches applied across live datasets (excluding journal replays).", ds: func(st *incremental.Stats) int64 { return int64(st.Batches) - st.Replay.Batches }},
	{name: "dataset_records_total", typ: "counter", help: "Records ingested across live datasets (excluding journal replays).", ds: func(st *incremental.Stats) int64 { return int64(st.Records[0]+st.Records[1]) - st.Replay.Records }},
	{name: "dataset_deltas_total", typ: "counter", help: "Delta Match pairs emitted across live datasets (excluding journal replays).", ds: func(st *incremental.Stats) int64 { return int64(st.Deltas) - st.Replay.Deltas }},
	{name: "dataset_allowance_spent_total", typ: "counter", help: "SMC allowance consumed by live-dataset appends (excluding journal replays).", ds: func(st *incremental.Stats) int64 { return st.Used - st.Replay.Spent }},
	{name: "dataset_batches_replayed_total", typ: "counter", help: "Committed batches reconstructed from ingest journals at daemon start.", ds: func(st *incremental.Stats) int64 { return st.Replay.Batches }},
	{name: "worker_chunks_total", typ: "counter", help: "Comparison chunks completed per fleet worker.", worker: func(w *distrib.WorkerRecord) float64 { return float64(w.Chunks.Count()) }},
	{name: "worker_failures_total", typ: "counter", help: "Failures observed per fleet worker (chunks reassigned).", worker: func(w *distrib.WorkerRecord) float64 { return float64(w.Failures) }},
	{name: "worker_heartbeat_seconds", typ: "gauge", help: "Unix time of each fleet worker's last heartbeat.", worker: func(w *distrib.WorkerRecord) float64 { return float64(w.LastBeat.Unix()) }},
}

// handleMetrics renders /metrics: the kept counts and every series read
// off the records. Stage times and comparator latencies fold the jobs'
// records and the datasets' stats together.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := &scrape{Server: s}
	queued, running := s.sched.Counts()
	c.queued, c.running = int64(queued), int64(running)
	var stages metrics.Times
	var latency metrics.Histogram
	for _, r := range list(s, s.jobs, func(j *Job) *core.ResultJSON { return j.result.Load() }) {
		if r != nil {
			c.jobs = append(c.jobs, *r)
			stages = stages.Add(r.Stages)
			latency.Merge(&r.SMCLatency)
		}
	}
	for _, ld := range list(s, s.datasets, func(ld *liveDataset) *liveDataset { return ld }) {
		if !ld.recovered {
			c.registered++
		}
		if ld.eng != nil {
			st := ld.eng.Stats()
			c.stats = append(c.stats, st)
			stages = stages.Add(st.Stages)
			latency.Merge(&st.Latency)
		}
	}
	if s.pool != nil {
		c.workers = s.pool.Records()
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := &metrics.Exposition{W: w}
	for _, m := range series {
		name := "pprl_" + m.name
		e.Family(name, m.typ, m.help)
		if m.worker != nil {
			for i := range c.workers {
				e.Sample(name, metrics.Label("worker", c.workers[i].Name), m.worker(&c.workers[i]))
			}
			continue
		}
		v := sum(c.jobs, m.job) + sum(c.stats, m.ds)
		if m.value != nil {
			v += m.value(c)
		}
		e.Sample(name, "", float64(v))
	}
	e.Family("pprl_stage_seconds_total", "counter", "Wall-clock seconds per stage across completed jobs and live datasets.")
	for _, st := range stages {
		e.Sample("pprl_stage_seconds_total", metrics.Label("stage", st.Name), st.Time.Seconds())
	}
	e.Family("pprl_smc_call_seconds", "histogram", "Duration of each SMC comparator call across completed jobs and live datasets.")
	e.Histogram("pprl_smc_call_seconds", "", &latency)
	e.Family("pprl_worker_chunk_seconds", "histogram", "Round trip of each comparison chunk per fleet worker.")
	for i := range c.workers {
		e.Histogram("pprl_worker_chunk_seconds", metrics.Label("worker", c.workers[i].Name), &c.workers[i].Chunks)
	}
}

// runJob is the scheduler's executor: it settles the job's state from
// the pipeline's outcome. The key distinction is which failures reach
// disk — real failures and cancellations persist a terminal state;
// interruptions (drain, or the test harness's simulated kill) do not,
// which is precisely what makes them resumable.
func (s *Server) runJob(ctx context.Context, job *Job) {
	s.logf("job=%s state=running distributed=%v", job.ID, job.Spec.Distributed)
	err := s.execute(ctx, job)
	switch {
	case err == nil:
		job.finish(StateDone, "")
		s.jobsDone.Add(1)
	case errors.Is(err, core.ErrInterrupted) && job.UserCanceled():
		s.settleJob(job, StateCanceled, err.Error())
	case errors.Is(err, core.ErrInterrupted), s.hardStop(err):
		// A drain checkpoint, or a simulated SIGKILL: settle in memory and
		// leave the disk exactly as the crash would — journaled prefix, no
		// terminal state.
		job.finish(StateInterrupted, err.Error())
	default:
		s.settleJob(job, StateFailed, err.Error())
	}
	if err == nil {
		s.logf("job=%s state=done", job.ID)
	} else {
		s.logf("job=%s state=%s error=%q", job.ID, job.State(), err)
	}
}

// settleJob ends j in a canceled or failed state that outlives the
// process.
func (s *Server) settleJob(j *Job, state State, msg string) {
	j.finish(state, s.persistTerminal(jobKind, j.ID, state, msg))
	if state == StateCanceled {
		s.jobsCanceled.Add(1)
	} else {
		s.jobsFailed.Add(1)
	}
}

// hardStop reports whether err is the test harness's simulated SIGKILL.
func (s *Server) hardStop(err error) bool {
	return s.cfg.Hooks.HardStop != nil && errors.Is(err, s.cfg.Hooks.HardStop)
}

// execute runs one job through the frozen run under its journal, and
// stores the result document.
func (s *Server) execute(ctx context.Context, job *Job) error {
	spec, err := job.Spec.job()
	if err != nil {
		return err
	}
	l, err := spec.Run(s.store.ResolveData, func(cfg *core.Config) (io.Closer, error) {
		cfg.Context = ctx
		cfg.Progress = job.Progress.Update
		if job.Spec.Distributed {
			if s.pool == nil {
				return nil, errors.New("service: distributed job but no worker fleet configured")
			}
			waitCtx, cancel := context.WithTimeout(ctx, time.Minute)
			err := s.pool.WaitWorkers(waitCtx, max(s.cfg.FleetMinWorkers, 1))
			cancel()
			if err != nil && ctx.Err() != nil {
				// A drain or a DELETE ended the wait, not the fleet: settle
				// like any interrupted run (resumed at the next start, or
				// canceled), never as a persisted failure.
				return nil, fmt.Errorf("%w: %v", core.ErrInterrupted, err)
			}
			if err != nil {
				return nil, err
			}
			jc := job.Spec.FleetJob(job.ID)
			cfg.Comparator = s.pool.Factory(jc)
			s.logf("job=%s fleet engine=%s workers=%v", job.ID, jc.Engine, s.pool.Workers())
		}
		jw, err := journal.Open(s.store.JournalPath(jobKind, job.ID), journal.Options{SyncEvery: s.cfg.JournalSync})
		if err != nil {
			return nil, err
		}
		cfg.Journal = jw
		if s.cfg.Hooks.WrapJournal != nil {
			cfg.Journal = s.cfg.Hooks.WrapJournal(job.ID, jw)
		}
		job.Progress.stages.Begin()
		return jw, nil
	})
	if err != nil {
		return err
	}
	if err := s.store.WriteResult(job.ID, l.Doc); err != nil {
		return err
	}
	rec := l.Doc.Result
	job.result.Store(&rec)
	return nil
}

// readDataset loads a holder's relation from the data directory.
func (s *Server) readDataset(schema *dataset.Schema, ref string) (*dataset.Dataset, error) {
	path, err := s.store.ResolveData(ref)
	if err != nil {
		return nil, err
	}
	return cliutil.ReadRelation(schema, path)
}
