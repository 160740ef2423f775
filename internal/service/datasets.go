package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pprl/internal/dataset"
	"pprl/internal/incremental"
	"pprl/internal/journal"
)

// queueDepth bounds every dataset's ingest queue: enough to smooth a
// bursty producer, small enough that backpressure (503 + Retry-After)
// arrives before the daemon hoards unbounded record batches in memory.
const queueDepth = 8

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
// their batch is applied. The notifier wakes the delta streams at every
// applied batch and state change.
type liveDataset struct {
	notifier

	ID        string
	Spec      DatasetSpec
	CreatedAt time.Time

	// schema, eng, jw and queue stay nil for a dataset that failed at
	// recovery: it is read-only.
	schema *dataset.Schema
	eng    *incremental.Engine
	jw     *journal.Writer
	queue  chan ingestBatch

	// recovered is set on a dataset this process found on disk, not one
	// registered over its API.
	recovered bool

	mu       sync.Mutex
	state    DatasetState
	errMsg   string
	accepted int
}

func newLiveDataset(df datasetFile, accepted int) *liveDataset {
	return &liveDataset{ID: df.ID, Spec: df.Spec, CreatedAt: df.CreatedAt, accepted: accepted}
}

// StatusView renders the wire form. A failed-at-recovery dataset has no
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

// fail moves the dataset to failed and wakes watchers.
func (ld *liveDataset) fail(msg string) {
	ld.mu.Lock()
	ld.state = DatasetFailed
	ld.errMsg = msg
	ld.mu.Unlock()
	ld.Notify()
}

// startDataset gives a registration its runtime: engine over the
// (possibly resumed) ingest journal, bounded queue, drainer goroutine
// seeded with the stored batches to replay.
func (s *Server) startDataset(ld *liveDataset, stored []batchEntry) error {
	schema, qids, err := ld.Spec.LoadSchema(s.store.ResolveData)
	if err != nil {
		return fmt.Errorf("service: dataset %s: %w", ld.ID, err)
	}
	cfg, err := ld.Spec.Config(qids)
	if err != nil {
		return fmt.Errorf("service: dataset %s: %w", ld.ID, err)
	}
	jw, err := journal.Open(s.store.JournalPath(datasetKind, ld.ID), journal.Options{SyncEvery: s.cfg.JournalSync})
	if err != nil {
		return fmt.Errorf("service: dataset %s: %w", ld.ID, err)
	}
	var sink journal.BatchSink = jw
	if s.cfg.Hooks.WrapDatasetJournal != nil {
		sink = s.cfg.Hooks.WrapDatasetJournal(ld.ID, jw)
	}
	cfg.Journal, cfg.Recovered = sink, jw.Recovered()
	eng, err := incremental.New(schema, cfg)
	if err != nil {
		jw.Close()
		return fmt.Errorf("service: dataset %s: %w", ld.ID, err)
	}

	ld.schema, ld.eng, ld.jw = schema, eng, jw
	ld.queue = make(chan ingestBatch, queueDepth)
	ld.state = DatasetActive
	if len(stored) > 0 {
		ld.state = DatasetReplaying
	}
	s.dsWG.Add(1)
	go s.runDataset(ld, stored)
	return nil
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
		case <-s.stop:
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
	s.logf("dataset=%s batch=%d side=%d records=%d deltas=%d spent=%d replayed=%v",
		ld.ID, br.Batch, br.Side, br.Records, len(br.Deltas), br.Spent, br.Replayed)
	ld.Notify()
	return true
}

func (s *Server) failDataset(ld *liveDataset, be batchEntry, err error) {
	if s.hardStop(err) {
		// Simulated SIGKILL: no terminal state on disk, resumable.
		ld.fail(err.Error())
		s.logf("dataset=%s batch=%d interrupted error=%q", ld.ID, be.Batch, err)
		return
	}
	ld.fail(s.persistTerminal(datasetKind, ld.ID, StateFailed, err.Error()))
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

func (s *Server) handleDatasetCreate(w http.ResponseWriter, r *http.Request) error {
	var spec DatasetSpec
	if err := decodeBody(w, r, "dataset spec", &spec); err != nil {
		return err
	}
	if err := spec.Validate(s.store.ResolveData); err != nil {
		return Errf(KindBadRequest, "%v", err)
	}
	df, err := register(s.store, datasetKind, func(id string, seq int) datasetFile {
		return datasetFile{ID: id, Seq: seq, CreatedAt: time.Now().UTC(), Spec: spec}
	})
	if err != nil {
		return err
	}
	ld := newLiveDataset(df, 0)
	if err := s.startDataset(ld, nil); err != nil {
		return err
	}
	s.mu.Lock()
	s.datasets[ld.ID] = ld
	s.mu.Unlock()
	s.logf("req=%s dataset=%s registered dedup=%v", requestID(r.Context()), ld.ID, spec.Dedup)
	writeAPI(w, http.StatusCreated, ld.StatusView())
	return nil
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) error {
	writeAPI(w, http.StatusOK, list(s, s.datasets, (*liveDataset).StatusView))
	return nil
}

func (s *Server) handleDatasetStatus(w http.ResponseWriter, r *http.Request) error {
	ld, err := lookup(s, s.datasets, datasetKind, r.PathValue("id"))
	if err != nil {
		return err
	}
	writeAPI(w, http.StatusOK, ld.StatusView())
	return nil
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

// liveOnly looks up a dataset for an operation that needs its engine.
func (s *Server) liveOnly(id string) (*liveDataset, error) {
	ld, err := lookup(s, s.datasets, datasetKind, id)
	if err == nil && ld.eng == nil { // failed at recovery: read-only
		err = Errf(KindConflict, "dataset is failed: %s", ld.errMsg)
	}
	return ld, err
}

func (s *Server) handleDatasetAppend(w http.ResponseWriter, r *http.Request) error {
	ld, err := s.liveOnly(r.PathValue("id"))
	if err != nil {
		return err
	}
	var req AppendRequest
	if err := decodeBody(w, r, "append request", &req); err != nil {
		return err
	}
	sideIdx, err := parseSide(req.Side, ld.Spec.Dedup)
	if err != nil {
		return err
	}
	if req.Path == "" {
		return Errf(KindBadRequest, "path is required")
	}
	// Parse the batch on the request path so a bad reference is the
	// caller's 400, not a poisoned engine later.
	recs, err := s.readBatchRecords(ld.schema, req.Path)
	if err != nil {
		return Errf(KindBadRequest, "reading batch: %v", err)
	}
	if len(recs) == 0 {
		return Errf(KindBadRequest, "batch %q holds no records", req.Path)
	}

	// Accept under the dataset lock: the durable schedule entry and the
	// queue slot move together, and only the drainer frees slots, so the
	// capacity check cannot race into a blocked send.
	ld.mu.Lock()
	entry := batchEntry{Batch: ld.accepted, Side: sideIdx, Ref: req.Path, At: time.Now().UTC()}
	switch {
	case ld.state == DatasetFailed:
		err = Errf(KindConflict, "dataset is failed: %s", ld.errMsg)
	case len(ld.queue) == cap(ld.queue):
		err = Errf(KindUnavailable, "ingest queue is full (%d batches pending); retry shortly", cap(ld.queue))
	default:
		if err = s.store.AppendBatchEntry(ld.ID, entry); err == nil {
			ld.accepted++
			ld.queue <- ingestBatch{entry: entry, recs: recs}
		}
	}
	ld.mu.Unlock()
	if err != nil {
		return err
	}

	s.logf("req=%s dataset=%s batch=%d side=%d records=%d accepted",
		requestID(r.Context()), ld.ID, entry.Batch, sideIdx, len(recs))
	writeAPI(w, http.StatusAccepted, AppendAck{
		Dataset: ld.ID, Batch: entry.Batch, Side: sideIdx, Records: len(recs),
	})
	return nil
}

// handleDatasetDeltas serves a page of deltas or, with ?stream=1, an SSE
// stream: one event per applied-batch window, each carrying the deltas
// since the previous event, so a consumer who integrates every event
// (starting at ?from=N) holds exactly the match set of a frozen run — the
// delta-equivalence contract over a live connection.
func (s *Server) handleDatasetDeltas(w http.ResponseWriter, r *http.Request) error {
	ld, err := s.liveOnly(r.PathValue("id"))
	if err != nil {
		return err
	}
	from := 0
	if raw := r.URL.Query().Get("from"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return Errf(KindBadRequest, "from must be a non-negative batch index, got %q", raw)
		}
		from = v
	}
	if r.URL.Query().Get("stream") != "" {
		return s.stream(w, r, ld.Watch, func(w io.Writer) bool {
			if next, deltas := ld.eng.Deltas(from); next > from {
				bp := pagePool.Get().(*[]byte)
				*bp = append(appendDeltasPage(append((*bp)[:0], "data: "...), ld.ID, from, next, deltas), "\n\n"...)
				_, err := w.Write(*bp)
				pagePool.Put(bp)
				if err != nil {
					return true
				}
				from = next
			}
			if st := ld.StatusView(); st.State == DatasetFailed {
				msg, _ := json.Marshal(st.Error) // a string always encodes
				fmt.Fprintf(w, "event: error\ndata: %s\n\n", msg)
				return true
			}
			return false
		})
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
	return nil
}
