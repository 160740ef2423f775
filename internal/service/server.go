package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"pprl/internal/cliutil"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/distrib"
	"pprl/internal/journal"
	"pprl/internal/match"
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
	// Dir is the service root; job state lives under Dir/jobs.
	Dir string
	// DataDir, when set, confines spec dataset references to this
	// directory.
	DataDir string
	// Workers bounds concurrent jobs (default 1).
	Workers int
	// JournalSync is the journal's SyncEvery (0 = the journal default).
	JournalSync int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// FleetListen, when set, binds a coordinator listener for SMC worker
	// registrations (pprl-party -role worker -coordinator <addr>).
	FleetListen string
	// FleetWorkers are worker addresses the daemon dials out to at
	// start, for fleets whose workers listen instead of dialing.
	FleetWorkers []string
	// FleetMinWorkers is how many registered workers a distributed job
	// waits for before shipping records (default 1).
	FleetMinWorkers int
	// Logger receives job and fleet lifecycle lines with correlation ids
	// (job=… chunk=… worker=…); nil is silent.
	Logger *log.Logger
	// Hooks are test seams; leave zero in production.
	Hooks Hooks
}

// fleetConfigured reports whether any fleet wiring was requested.
func (c *Config) fleetConfigured() bool {
	return c.FleetListen != "" || len(c.FleetWorkers) > 0
}

// Server is the linkage job service: it owns the store, the scheduler,
// and the HTTP API. Create one with New, serve Handler, and stop with
// Drain.
type Server struct {
	cfg   Config
	store *Store
	sched *Scheduler
	reg   *metrics.Registry

	mu       sync.Mutex
	jobs     map[string]*Job
	byKey    map[string]string // idempotency key → job ID
	datasets map[string]*liveDataset

	// dsStop ends every dataset drainer at Drain; dsWG waits for them.
	dsStop chan struct{}
	dsWG   sync.WaitGroup

	mJobsSubmitted *metrics.Var
	mJobsDone      *metrics.Var
	mJobsFailed    *metrics.Var
	mJobsCanceled  *metrics.Var
	mJobsRecovered *metrics.Var
	mJobsQueued    *metrics.Var
	mJobsRunning   *metrics.Var
	mSMCPurchased  *metrics.Var
	mSMCReplayed   *metrics.Var
	mHTTPRequests  *metrics.Var

	mBlockClasses    *metrics.Var
	mBlockClassPairs *metrics.Var
	mBlockEvals      *metrics.Var
	mBlockPruned     *metrics.Var
	mBlockMatched    *metrics.Var
	mBlockNonMatched *metrics.Var
	mBlockUnknown    *metrics.Var

	mTierNonMatched *metrics.Var
	mTierUncertain  *metrics.Var

	mDPJobs         *metrics.Var
	mDPEpsilonMilli *metrics.Var
	mDPDummyPairs   *metrics.Var
	mDPDummySpent   *metrics.Var

	mDatasets        *metrics.Var
	mDatasetBatches  *metrics.Var
	mDatasetRecords  *metrics.Var
	mDatasetDeltas   *metrics.Var
	mDatasetSpent    *metrics.Var
	mDatasetReplayed *metrics.Var

	mWorkerChunks    *metrics.VarVec
	mWorkerFailures  *metrics.VarVec
	mWorkerHeartbeat *metrics.VarVec

	// pool coordinates the SMC worker fleet; nil when no fleet is
	// configured. fleetLn is the registration listener (when bound) and
	// fleetCancel stops the dial-out goroutines.
	pool        *distrib.Pool
	fleetLn     net.Listener
	fleetCancel context.CancelFunc
}

// New opens the service root, recovers jobs left behind by a previous
// daemon, and starts the worker pool. In-flight jobs from before the
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
		reg:      metrics.NewRegistry("pprl"),
		jobs:     make(map[string]*Job),
		byKey:    make(map[string]string),
		datasets: make(map[string]*liveDataset),
		dsStop:   make(chan struct{}),
	}
	s.mJobsSubmitted = s.reg.Counter("jobs_submitted_total", "Jobs accepted over the API.")
	s.mJobsDone = s.reg.Counter("jobs_done_total", "Jobs completed successfully.")
	s.mJobsFailed = s.reg.Counter("jobs_failed_total", "Jobs ended by an error.")
	s.mJobsCanceled = s.reg.Counter("jobs_canceled_total", "Jobs ended by DELETE.")
	s.mJobsRecovered = s.reg.Counter("jobs_recovered_total", "Jobs re-queued from their journals at daemon start.")
	s.mJobsQueued = s.reg.Gauge("jobs_queued", "Jobs waiting for a worker slot.")
	s.mJobsRunning = s.reg.Gauge("jobs_running", "Jobs executing right now.")
	s.mSMCPurchased = s.reg.Counter("smc_comparisons_total", "Live SMC comparisons purchased across completed jobs.")
	s.mSMCReplayed = s.reg.Counter("smc_replayed_allowance_total", "Allowance satisfied from journals instead of live SMC across completed jobs.")
	s.mHTTPRequests = s.reg.Counter("http_requests_total", "API requests served.")
	s.mBlockClasses = s.reg.Counter("blocking_classes_total", "Equivalence classes blocked across completed jobs (both relations).")
	s.mBlockClassPairs = s.reg.Counter("blocking_class_pairs_total", "Class pairs in the blocking candidate space across completed jobs.")
	s.mBlockEvals = s.reg.Counter("blocking_rule_evaluations_total", "Class pairs the slack rule actually evaluated (indexed jobs skip pruned pairs).")
	s.mBlockPruned = s.reg.Counter("blocking_pruned_class_pairs_total", "Class pairs the hierarchy index pruned without a rule evaluation.")
	s.mBlockMatched = s.reg.Counter("blocking_matched_pairs_total", "Record pairs blocking labeled Match across completed jobs.")
	s.mBlockNonMatched = s.reg.Counter("blocking_nonmatched_pairs_total", "Record pairs blocking labeled NonMatch across completed jobs.")
	s.mBlockUnknown = s.reg.Counter("blocking_unknown_pairs_total", "Record pairs blocking left Unknown for SMC across completed jobs.")
	s.mTierNonMatched = s.reg.Counter("tier_nonmatched_pairs_total", "Unknown pairs the triage tier labeled NonMatch for free across completed jobs.")
	s.mTierUncertain = s.reg.Counter("tier_uncertain_pairs_total", "Unknown pairs the tier left for the SMC allowance across completed jobs.")
	s.mDPJobs = s.reg.Counter("dp_jobs_total", "Jobs completed under differentially private blocking.")
	s.mDPEpsilonMilli = s.reg.Counter("dp_epsilon_spent_milli_total", "Composed epsilon spent across completed DP jobs, in thousandths.")
	s.mDPDummyPairs = s.reg.Counter("dp_dummy_pairs_total", "Dummy candidate pairs introduced by noise padding across completed DP jobs.")
	s.mDPDummySpent = s.reg.Counter("dp_dummy_spent_total", "SMC comparisons bought on a padded dummy handle across completed DP jobs (part of the invocations, not on top of them).")
	s.mDatasets = s.reg.Counter("datasets_registered_total", "Live datasets registered over the API.")
	s.mDatasetBatches = s.reg.Counter("dataset_batches_total", "Append batches applied across live datasets (excluding journal replays).")
	s.mDatasetRecords = s.reg.Counter("dataset_records_total", "Records ingested across live datasets (excluding journal replays).")
	s.mDatasetDeltas = s.reg.Counter("dataset_deltas_total", "Delta Match pairs emitted across live datasets (excluding journal replays).")
	s.mDatasetSpent = s.reg.Counter("dataset_allowance_spent_total", "SMC allowance consumed by live-dataset appends (excluding journal replays).")
	s.mDatasetReplayed = s.reg.Counter("dataset_batches_replayed_total", "Committed batches reconstructed from ingest journals at daemon start.")
	s.mWorkerChunks = s.reg.CounterVec("worker_chunks_total", "worker", "Comparison chunks completed per fleet worker.")
	s.mWorkerFailures = s.reg.CounterVec("worker_failures_total", "worker", "Failures observed per fleet worker (chunks reassigned).")
	s.mWorkerHeartbeat = s.reg.GaugeVec("worker_heartbeat_seconds", "worker", "Unix time of each fleet worker's last heartbeat.")

	if cfg.fleetConfigured() {
		if err := s.startFleet(); err != nil {
			return nil, err
		}
	}

	recovered, err := store.Recover()
	if err != nil {
		if s.pool != nil {
			s.pool.Close()
		}
		return nil, err
	}
	s.sched = NewScheduler(cfg.Workers, s.runJob)
	for _, j := range recovered {
		s.jobs[j.ID] = j
		if key := j.Spec.IdempotencyKey; key != "" {
			s.byKey[key] = j.ID
		}
		if j.State() == StateQueued {
			s.mJobsRecovered.Inc()
			if err := s.sched.Enqueue(j); err != nil {
				return nil, err
			}
		}
	}
	recoveredDS, err := store.RecoverDatasets()
	if err != nil {
		s.Drain()
		return nil, err
	}
	for _, rd := range recoveredDS {
		var ld *liveDataset
		var err error
		if rd.Failed == "" {
			// A DP journal of record pairs can never resume: that dataset
			// alone comes back failed.
			if ld, err = s.buildDataset(rd.File, rd.Batches); errors.Is(err, core.ErrUnpaddedJournal) {
				rd.Failed = err.Error()
			}
		}
		if rd.Failed != "" {
			// Surface the dataset read-only instead of replaying into the
			// same wall.
			s.datasets[rd.File.ID] = &liveDataset{
				ID: rd.File.ID, Seq: rd.File.Seq, Spec: rd.File.Spec,
				CreatedAt: rd.File.CreatedAt, accepted: len(rd.Batches),
				state: DatasetFailed, errMsg: rd.Failed,
				changed: make(chan struct{}),
			}
			continue
		}
		if err != nil {
			s.Drain()
			return nil, err
		}
		s.datasets[ld.ID] = ld
		s.logf("dataset=%s recovered batches=%d", ld.ID, len(rd.Batches))
	}
	return s, nil
}

// Metrics returns the server's registry, e.g. for expvar.Publish.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// startFleet brings the SMC worker coordinator up: a registration
// listener when FleetListen is set, plus dial-out goroutines for every
// FleetWorkers address.
func (s *Server) startFleet() error {
	s.pool = distrib.NewPool(distrib.PoolOptions{
		Logger:       s.cfg.Logger,
		ChunksVec:    s.mWorkerChunks,
		FailuresVec:  s.mWorkerFailures,
		HeartbeatVec: s.mWorkerHeartbeat,
	})
	ctx, cancel := context.WithCancel(context.Background())
	s.fleetCancel = cancel
	if s.cfg.FleetListen != "" {
		ln, err := net.Listen("tcp", s.cfg.FleetListen)
		if err != nil {
			s.pool.Close()
			return fmt.Errorf("service: fleet listener: %w", err)
		}
		s.fleetLn = ln
		s.logf("fleet: accepting worker registrations on %s", ln.Addr())
		go s.pool.Serve(ln)
	}
	for _, addr := range s.cfg.FleetWorkers {
		go func(addr string) {
			conn, err := cliutil.DialRetry(ctx, "tcp", addr, cliutil.Backoff{})
			if err != nil {
				s.logf("fleet: worker %s unreachable: %v", addr, err)
				return
			}
			if err := s.pool.AddConn(conn); err != nil {
				s.logf("fleet: worker %s registration failed: %v", addr, err)
			}
		}(addr)
	}
	return nil
}

// FleetAddr returns the bound worker-registration address, empty when
// no fleet listener is up.
func (s *Server) FleetAddr() string {
	if s.fleetLn == nil {
		return ""
	}
	return s.fleetLn.Addr().String()
}

// FleetWorkers returns the names of the currently registered workers.
func (s *Server) FleetWorkers() []string {
	if s.pool == nil {
		return nil
	}
	return s.pool.Workers()
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
	case <-s.dsStop:
	default:
		close(s.dsStop)
	}
	s.dsWG.Wait()
	if s.fleetCancel != nil {
		s.fleetCancel()
	}
	if s.pool != nil {
		s.pool.Close()
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/datasets", s.handleDatasetCreate)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasetList)
	mux.HandleFunc("GET /v1/datasets/{id}", s.handleDatasetStatus)
	mux.HandleFunc("POST /v1/datasets/{id}/records", s.handleDatasetAppend)
	mux.HandleFunc("GET /v1/datasets/{id}/deltas", s.handleDatasetDeltas)
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
		s.mHTTPRequests.Inc()
		mux.ServeHTTP(w, r)
	}))
}

func writeAPI(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeAPIError(w http.ResponseWriter, code int, format string, args ...any) {
	kind := kindFromStatus(code)
	if kind.Retryable() {
		w.Header().Set("Retry-After", "1")
	}
	writeAPI(w, code, apiError{
		Error:     fmt.Sprintf(format, args...),
		Kind:      kind,
		Retryable: kind.Retryable(),
	})
}

// maxSpecBytes bounds a submission body; specs are a page of JSON, not
// record data.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeAPIError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeAPIError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if spec.Distributed && s.pool == nil {
		// The spec is well-formed; it's this daemon that can't honor it —
		// 422, terminal, so clients don't retry into the same wall.
		writeErr(w, Errf(KindInvalid, "distributed jobs need a worker fleet: start the daemon with -fleet-listen or -worker"))
		return
	}
	// Reject unresolvable dataset references at submit time rather than
	// letting the job fail later in the queue.
	for _, ref := range []string{spec.AlicePath, spec.BobPath} {
		if _, err := s.store.ResolveData(ref); err != nil {
			writeAPIError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	s.mu.Lock()
	if key := spec.IdempotencyKey; key != "" {
		if id, ok := s.byKey[key]; ok {
			j := s.jobs[id]
			s.mu.Unlock()
			writeAPI(w, http.StatusOK, j.Status())
			return
		}
	}
	// Holding the lock across NewJob serializes submissions, keeping the
	// key→job mapping race-free; job creation is two small file writes.
	j, err := s.store.NewJob(spec)
	if err != nil {
		s.mu.Unlock()
		writeAPIError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.jobs[j.ID] = j
	if key := spec.IdempotencyKey; key != "" {
		s.byKey[key] = j.ID
	}
	s.mu.Unlock()

	if err := s.sched.Enqueue(j); err != nil {
		writeAPIError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.mJobsSubmitted.Inc()
	s.logf("req=%s job=%s state=queued", requestID(r.Context()), j.ID)
	writeAPI(w, http.StatusCreated, j.Status())
}

func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	statuses := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		statuses = append(statuses, j.Status())
	}
	// FIFO order, matching the scheduler.
	for i := 1; i < len(statuses); i++ {
		for k := i; k > 0 && statuses[k-1].ID > statuses[k].ID; k-- {
			statuses[k-1], statuses[k] = statuses[k], statuses[k-1]
		}
	}
	writeAPI(w, http.StatusOK, statuses)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeAPIError(w, http.StatusNotFound, "no such job")
		return
	}
	writeAPI(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeAPIError(w, http.StatusNotFound, "no such job")
		return
	}
	if wasQueued := s.sched.Cancel(j); wasQueued {
		// A queued job settles here; a running one settles on its worker
		// once the engine checkpoints.
		if err := s.store.WriteTerminal(j.ID, StateCanceled, "canceled while queued"); err != nil {
			writeAPIError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		s.mJobsCanceled.Inc()
	}
	s.logf("req=%s job=%s cancel requested", requestID(r.Context()), j.ID)
	writeAPI(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeAPIError(w, http.StatusNotFound, "no such job")
		return
	}
	if st := j.State(); st != StateDone {
		writeAPIError(w, http.StatusConflict, "job is %s, not done", st)
		return
	}
	res, err := s.store.ReadResult(j.ID)
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeAPI(w, http.StatusOK, res)
}

// handleEvents streams job status updates as server-sent events: one
// `data:` line per progress change, a final one when the job settles.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeAPIError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeAPIError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func() bool {
		raw, err := json.Marshal(j.Status())
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", raw); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	for {
		_, changed := j.Progress.Watch()
		if !emit() {
			return
		}
		select {
		case <-j.Settled():
			emit()
			return
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
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

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	queued, running := s.sched.Counts()
	s.mJobsQueued.Set(int64(queued))
	s.mJobsRunning.Set(int64(running))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
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
		s.mJobsDone.Inc()
	case errors.Is(err, core.ErrInterrupted):
		if job.UserCanceled() {
			s.store.WriteTerminal(job.ID, StateCanceled, err.Error())
			job.finish(StateCanceled, err.Error())
			s.mJobsCanceled.Inc()
		} else {
			job.finish(StateInterrupted, err.Error())
		}
	case s.cfg.Hooks.HardStop != nil && errors.Is(err, s.cfg.Hooks.HardStop):
		// Simulated SIGKILL: settle in memory, leave the disk exactly as
		// the crash would — journaled prefix, no terminal state.
		job.finish(StateInterrupted, err.Error())
	default:
		s.store.WriteTerminal(job.ID, StateFailed, err.Error())
		job.finish(StateFailed, err.Error())
		s.mJobsFailed.Inc()
	}
	if err == nil {
		s.logf("job=%s state=done", job.ID)
	} else {
		s.logf("job=%s state=%s error=%q", job.ID, job.State(), err)
	}
}

// execute runs one job through the core pipeline under its journal.
func (s *Server) execute(ctx context.Context, job *Job) error {
	spec := job.Spec

	schema, qids, err := spec.LoadSchema(s.store.ResolveData)
	if err != nil {
		return err
	}
	alice, err := s.readDataset(schema, spec.AlicePath)
	if err != nil {
		return fmt.Errorf("reading alice: %w", err)
	}
	bob, err := s.readDataset(schema, spec.BobPath)
	if err != nil {
		return fmt.Errorf("reading bob: %w", err)
	}

	cfg, err := spec.Config(qids)
	if err != nil {
		return err
	}
	cfg.Context = ctx
	cfg.Progress = job.Progress.Update

	if spec.Distributed {
		if s.pool == nil {
			return errors.New("service: distributed job but no worker fleet configured")
		}
		min := s.cfg.FleetMinWorkers
		if min < 1 {
			min = 1
		}
		waitCtx, cancel := context.WithTimeout(ctx, time.Minute)
		err := s.pool.WaitWorkers(waitCtx, min)
		cancel()
		if err != nil {
			return err
		}
		jc := spec.FleetJob(job.ID)
		cfg.Comparator = s.pool.Factory(jc)
		s.logf("job=%s fleet engine=%s workers=%v", job.ID, jc.Engine, s.pool.Workers())
	}

	jw, _, err := journal.Open(s.store.JournalPath(job.ID), journal.Options{SyncEvery: s.cfg.JournalSync})
	if err != nil {
		return err
	}
	defer jw.Close()
	var sink journal.Sink = jw
	if s.cfg.Hooks.WrapJournal != nil {
		sink = s.cfg.Hooks.WrapJournal(job.ID, jw)
	}
	cfg.Journal = sink

	res, err := core.Link(core.Holder{Data: alice}, core.Holder{Data: bob}, cfg)
	if err != nil {
		return err
	}

	jr := &JobResult{Result: res.Summarize(), Matches: res.Matches()}
	if spec.Evaluate {
		truth, err := match.TruePairs(alice, bob, res.QIDs(), res.Rule())
		if err != nil {
			return fmt.Errorf("computing ground truth: %w", err)
		}
		conf := res.Evaluate(truth)
		jr.Evaluation = &conf
		jr.TruthPairs = len(truth)
	}
	if err := s.store.WriteResult(job.ID, jr); err != nil {
		return err
	}
	s.mSMCPurchased.Add(res.Invocations)
	s.mSMCReplayed.Add(res.Resume.ReplayedAllowance)
	block := res.Block
	s.mBlockClasses.Add(int64(len(block.R.Classes) + len(block.S.Classes)))
	classPairs := int64(len(block.R.Classes)) * int64(len(block.S.Classes))
	s.mBlockClassPairs.Add(classPairs)
	// Every route core.Link blocks through (the index, DP bin
	// intersection) reports its evaluation counts.
	s.mBlockEvals.Add(block.Stats.RuleEvaluations)
	s.mBlockPruned.Add(block.Stats.PrunedClassPairs)
	s.mBlockMatched.Add(block.MatchedPairs)
	s.mBlockNonMatched.Add(block.NonMatchedPairs)
	s.mBlockUnknown.Add(block.UnknownPairs)
	s.mTierNonMatched.Add(res.TierNonMatchedPairs())
	s.mTierUncertain.Add(res.TierUncertainPairs)
	if res.DP != nil {
		s.mDPJobs.Add(1)
		// The registry is integer-valued; epsilon is reported in milli-units.
		s.mDPEpsilonMilli.Add(int64(res.DP.TotalEpsilon*1000 + 0.5))
		s.mDPDummyPairs.Add(res.DP.DummyPairs)
		s.mDPDummySpent.Add(res.DP.DummySpent)
	}
	return nil
}

// readDataset loads a holder's relation through the chunked streaming
// reader: anonymization needs the materialized Dataset, but parsing
// happens in bounded chunks rather than row-state-plus-dataset at once.
func (s *Server) readDataset(schema *dataset.Schema, ref string) (*dataset.Dataset, error) {
	path, err := s.store.ResolveData(ref)
	if err != nil {
		return nil, err
	}
	st, err := dataset.OpenStream(schema, path, dataset.StreamOptions{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.ReadAll()
}
