package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pprl/internal/dataset"
	"pprl/internal/incremental"
	"pprl/internal/journal"
)

// defaultQueueDepth bounds a dataset's ingest queue when the
// registration doesn't choose: enough to smooth a bursty producer,
// small enough that backpressure (503 + Retry-After) arrives before the
// daemon hoards unbounded record batches in memory.
const defaultQueueDepth = 8

// ingestBatch is one accepted append travelling from the HTTP handler to
// the dataset's drainer: the durable entry plus the already-parsed
// records (re-read from the entry's ref on recovery instead).
type ingestBatch struct {
	entry batchEntry
	recs  []dataset.Record
}

// liveDataset is one registered live dataset's runtime: the incremental
// engine, its journal, and the bounded ingest queue drained by a
// dedicated goroutine. Appends are accepted (persisted + queued) on the
// request path and applied asynchronously; deltas become queryable once
// their batch is applied.
type liveDataset struct {
	ID        string
	Seq       int
	Spec      DatasetSpec
	CreatedAt time.Time

	schema *dataset.Schema
	eng    *incremental.Engine
	jw     *journal.Writer
	queue  chan ingestBatch

	mu       sync.Mutex
	state    DatasetState
	errMsg   string
	accepted int
	changed  chan struct{}
}

// Status renders the wire form. A failed-at-recovery dataset has no
// engine; its stats are zero.
func (ld *liveDataset) StatusView() DatasetStatus {
	ld.mu.Lock()
	st := DatasetStatus{
		ID:        ld.ID,
		State:     ld.state,
		Error:     ld.errMsg,
		Dedup:     ld.Spec.Dedup,
		CreatedAt: ld.CreatedAt,
		Accepted:  ld.accepted,
	}
	ld.mu.Unlock()
	if ld.eng != nil {
		st.Stats = ld.eng.Stats()
		st.Applied = st.Stats.Batches
	}
	return st
}

// watch returns a channel closed at the next applied batch or state
// change, for the SSE stream.
func (ld *liveDataset) watch() <-chan struct{} {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	return ld.changed
}

// bump wakes watchers.
func (ld *liveDataset) bump() {
	ld.mu.Lock()
	close(ld.changed)
	ld.changed = make(chan struct{})
	ld.mu.Unlock()
}

// fail moves the dataset to failed and wakes watchers.
func (ld *liveDataset) fail(msg string) {
	ld.mu.Lock()
	ld.state = DatasetFailed
	ld.errMsg = msg
	close(ld.changed)
	ld.changed = make(chan struct{})
	ld.mu.Unlock()
}

// buildDataset constructs the runtime for a registration: engine over
// the (possibly resumed) ingest journal, bounded queue, drainer
// goroutine seeded with the stored batches to replay.
func (s *Server) buildDataset(df datasetFile, stored []batchEntry) (*liveDataset, error) {
	schema, qids, err := df.Spec.LoadSchema(s.store.ResolveData)
	if err != nil {
		return nil, fmt.Errorf("service: dataset %s: %w", df.ID, err)
	}
	cfg, err := df.Spec.Config(qids)
	if err != nil {
		return nil, fmt.Errorf("service: dataset %s: %w", df.ID, err)
	}
	jw, resumed, err := journal.Open(s.store.DatasetJournalPath(df.ID), journal.Options{SyncEvery: s.cfg.JournalSync})
	if err != nil {
		return nil, fmt.Errorf("service: dataset %s: %w", df.ID, err)
	}
	var sink journal.BatchSink = jw
	if s.cfg.Hooks.WrapDatasetJournal != nil {
		sink = s.cfg.Hooks.WrapDatasetJournal(df.ID, jw)
	}
	cfg.Journal = sink
	if resumed {
		cfg.Recovered = jw.Recovered()
	}
	eng, err := incremental.New(schema, cfg)
	if err != nil {
		jw.Close()
		return nil, fmt.Errorf("service: dataset %s: %w", df.ID, err)
	}

	depth := df.Spec.QueueDepth
	if depth <= 0 {
		depth = defaultQueueDepth
	}
	ld := &liveDataset{
		ID:        df.ID,
		Seq:       df.Seq,
		Spec:      df.Spec,
		CreatedAt: df.CreatedAt,
		schema:    schema,
		eng:       eng,
		jw:        jw,
		queue:     make(chan ingestBatch, depth),
		state:     DatasetActive,
		accepted:  len(stored),
		changed:   make(chan struct{}),
	}
	if len(stored) > 0 {
		ld.state = DatasetReplaying
	}
	s.dsWG.Add(1)
	go s.runDataset(ld, stored)
	return ld, nil
}

// runDataset is a dataset's drainer: re-apply the stored schedule first
// (journal frames make the committed prefix free), then serve the queue
// until the daemon drains. An apply error ends the drainer — the engine
// is poisoned and only a rebuild from the journal can continue.
func (s *Server) runDataset(ld *liveDataset, stored []batchEntry) {
	defer s.dsWG.Done()
	defer ld.jw.Close()
	for _, be := range stored {
		recs, err := s.readBatchRecords(ld.schema, be.Ref)
		if err != nil {
			s.failDataset(ld, be, fmt.Errorf("re-reading stored batch: %w", err))
			return
		}
		if !s.applyBatch(ld, ingestBatch{entry: be, recs: recs}) {
			return
		}
	}
	ld.mu.Lock()
	if ld.state == DatasetReplaying {
		ld.state = DatasetActive
	}
	ld.mu.Unlock()
	for {
		select {
		case <-s.dsStop:
			// Queued-but-unapplied batches are persisted in batches.jsonl;
			// the next daemon start replays them.
			return
		case ib := <-ld.queue:
			if !s.applyBatch(ld, ib) {
				return
			}
		}
	}
}

// applyBatch feeds one batch to the engine and publishes the outcome.
// Returns false when the dataset failed (real failures persist a
// terminal status; a simulated crash — Hooks.HardStop — leaves the disk
// as a SIGKILL would, so the next start resumes).
func (s *Server) applyBatch(ld *liveDataset, ib ingestBatch) bool {
	br, err := ld.eng.Append(ib.entry.Side, ib.recs)
	if err != nil {
		s.failDataset(ld, ib.entry, err)
		return false
	}
	if br.Replayed {
		s.mDatasetReplayed.Inc()
	} else {
		s.mDatasetBatches.Inc()
		s.mDatasetRecords.Add(int64(br.Records))
		s.mDatasetDeltas.Add(int64(len(br.Deltas)))
		s.mDatasetSpent.Add(br.Spent)
	}
	s.logf("dataset=%s batch=%d side=%d records=%d deltas=%d spent=%d replayed=%v",
		ld.ID, br.Batch, br.Side, br.Records, len(br.Deltas), br.Spent, br.Replayed)
	ld.bump()
	return true
}

func (s *Server) failDataset(ld *liveDataset, be batchEntry, err error) {
	ld.fail(err.Error())
	if s.cfg.Hooks.HardStop != nil && errors.Is(err, s.cfg.Hooks.HardStop) {
		// Simulated SIGKILL: no terminal state on disk, resumable.
		s.logf("dataset=%s batch=%d interrupted error=%q", ld.ID, be.Batch, err)
		return
	}
	if werr := s.store.WriteDatasetTerminal(ld.ID, err.Error()); werr != nil {
		s.logf("dataset=%s persisting failure: %v", ld.ID, werr)
	}
	s.logf("dataset=%s batch=%d state=failed error=%q", ld.ID, be.Batch, err)
}

// readBatchRecords loads one batch's records from its CSV reference.
func (s *Server) readBatchRecords(schema *dataset.Schema, ref string) ([]dataset.Record, error) {
	d, err := s.readDataset(schema, ref)
	if err != nil {
		return nil, err
	}
	return d.Records(), nil
}

// dataset looks a runtime up by id.
func (s *Server) dataset(id string) *liveDataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.datasets[id]
}

func (s *Server) handleDatasetCreate(w http.ResponseWriter, r *http.Request) {
	var spec DatasetSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, Errf(KindBadRequest, "decoding dataset spec: %v", err))
		return
	}
	if err := spec.Validate(); err != nil {
		writeErr(w, Errf(KindBadRequest, "%v", err))
		return
	}
	// Prove the schema loads before any state exists; a bad reference is
	// the submitter's error, not a poisoned dataset.
	if _, _, err := spec.LoadSchema(s.store.ResolveData); err != nil {
		writeErr(w, Errf(KindBadRequest, "%v", err))
		return
	}
	df, err := s.store.NewDataset(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	ld, err := s.buildDataset(*df, nil)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	s.datasets[ld.ID] = ld
	s.mu.Unlock()
	s.mDatasets.Inc()
	s.logf("req=%s dataset=%s registered dedup=%v", requestID(r.Context()), ld.ID, spec.Dedup)
	writeAPI(w, http.StatusCreated, ld.StatusView())
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	lds := make([]*liveDataset, 0, len(s.datasets))
	for _, ld := range s.datasets {
		lds = append(lds, ld)
	}
	s.mu.Unlock()
	statuses := make([]DatasetStatus, 0, len(lds))
	for _, ld := range lds {
		statuses = append(statuses, ld.StatusView())
	}
	for i := 1; i < len(statuses); i++ {
		for k := i; k > 0 && statuses[k-1].ID > statuses[k].ID; k-- {
			statuses[k-1], statuses[k] = statuses[k], statuses[k-1]
		}
	}
	writeAPI(w, http.StatusOK, statuses)
}

func (s *Server) handleDatasetStatus(w http.ResponseWriter, r *http.Request) {
	ld := s.dataset(r.PathValue("id"))
	if ld == nil {
		writeErr(w, Errf(KindNotFound, "no such dataset"))
		return
	}
	writeAPI(w, http.StatusOK, ld.StatusView())
}

// parseSide maps the wire side name to the engine's index.
func parseSide(name string, dedup bool) (int, error) {
	switch name {
	case "", "alice":
		return 0, nil
	case "bob":
		if dedup {
			return 0, Errf(KindInvalid, "dedup datasets have one side; use \"alice\" or omit it")
		}
		return 1, nil
	default:
		return 0, Errf(KindBadRequest, "unknown side %q (want \"alice\" or \"bob\")", name)
	}
}

func (s *Server) handleDatasetAppend(w http.ResponseWriter, r *http.Request) {
	ld := s.dataset(r.PathValue("id"))
	if ld == nil {
		writeErr(w, Errf(KindNotFound, "no such dataset"))
		return
	}
	if ld.eng == nil { // failed at recovery: no schema to parse against
		writeErr(w, Errf(KindConflict, "dataset is failed: %s", ld.errMsg))
		return
	}
	var req AppendRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, Errf(KindBadRequest, "decoding append request: %v", err))
		return
	}
	sideIdx, err := parseSide(req.Side, ld.Spec.Dedup)
	if err != nil {
		writeErr(w, err)
		return
	}
	if req.Path == "" {
		writeErr(w, Errf(KindBadRequest, "path is required"))
		return
	}
	// Parse the batch on the request path so a bad reference is the
	// caller's 400, not a poisoned engine later.
	recs, err := s.readBatchRecords(ld.schema, req.Path)
	if err != nil {
		writeErr(w, Errf(KindBadRequest, "reading batch: %v", err))
		return
	}
	if len(recs) == 0 {
		writeErr(w, Errf(KindBadRequest, "batch %q holds no records", req.Path))
		return
	}

	// Accept under the dataset lock: the durable schedule entry and the
	// queue slot move together, and only the drainer frees slots, so the
	// capacity check cannot race into a blocked send.
	ld.mu.Lock()
	if ld.state == DatasetFailed {
		ld.mu.Unlock()
		writeErr(w, Errf(KindConflict, "dataset is failed: %s", ld.errMsg))
		return
	}
	if len(ld.queue) == cap(ld.queue) {
		ld.mu.Unlock()
		writeErr(w, Errf(KindUnavailable, "ingest queue is full (%d batches pending); retry shortly", cap(ld.queue)))
		return
	}
	entry := batchEntry{Batch: ld.accepted, Side: sideIdx, Ref: req.Path, At: time.Now().UTC()}
	if err := s.store.AppendBatchEntry(ld.ID, entry); err != nil {
		ld.mu.Unlock()
		writeErr(w, err)
		return
	}
	ld.accepted++
	ld.queue <- ingestBatch{entry: entry, recs: recs}
	ld.mu.Unlock()

	s.logf("req=%s dataset=%s batch=%d side=%d records=%d accepted",
		requestID(r.Context()), ld.ID, entry.Batch, sideIdx, len(recs))
	writeAPI(w, http.StatusAccepted, AppendAck{
		Dataset: ld.ID, Batch: entry.Batch, Side: sideIdx, Records: len(recs),
	})
}

func (s *Server) handleDatasetDeltas(w http.ResponseWriter, r *http.Request) {
	ld := s.dataset(r.PathValue("id"))
	if ld == nil {
		writeErr(w, Errf(KindNotFound, "no such dataset"))
		return
	}
	if ld.eng == nil {
		writeErr(w, Errf(KindConflict, "dataset is failed: %s", ld.StatusView().Error))
		return
	}
	from := 0
	if raw := r.URL.Query().Get("from"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeErr(w, Errf(KindBadRequest, "from must be a non-negative batch index, got %q", raw))
			return
		}
		from = v
	}
	if r.URL.Query().Get("stream") != "" {
		s.streamDeltas(w, r, ld, from)
		return
	}
	next, deltas := ld.eng.Deltas(from)
	bp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bp)
	*bp = append(appendDeltasPage((*bp)[:0], ld.ID, from, next, deltas), '\n')
	// One write of known length: a page of a few thousand deltas would
	// otherwise leave through the server's 4 KB chunked writer.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
	w.WriteHeader(http.StatusOK)
	w.Write(*bp)
}

// streamDeltas is the SSE variant: one event per applied-batch window,
// each carrying the deltas since the previous event, so a consumer who
// integrates every event (starting at ?from=N) holds exactly the match
// set of a frozen run — the delta-equivalence contract over a live
// connection.
func (s *Server) streamDeltas(w http.ResponseWriter, r *http.Request, ld *liveDataset, from int) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, Errf(KindInternal, "streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		changed := ld.watch()
		next, deltas := ld.eng.Deltas(from)
		if next > from {
			bp := pagePool.Get().(*[]byte)
			*bp = append(appendDeltasPage(append((*bp)[:0], "data: "...), ld.ID, from, next, deltas), "\n\n"...)
			_, err := w.Write(*bp)
			pagePool.Put(bp)
			if err != nil {
				return
			}
			flusher.Flush()
			from = next
		}
		if st := ld.StatusView(); st.State == DatasetFailed {
			fmt.Fprintf(w, "event: error\ndata: %q\n\n", st.Error)
			flusher.Flush()
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-s.dsStop:
			return
		}
	}
}
