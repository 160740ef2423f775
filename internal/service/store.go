package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Store owns the service's on-disk layout. Every job lives in its own
// directory under <root>/jobs:
//
//	<root>/jobs/job-000001/
//	    spec.json    the accepted submission (written before queuing)
//	    run.wal      the core pipeline's journal (written while running)
//	    result.json  the final labeling summary (written on success)
//	    status.json  the terminal state for failed/canceled jobs
//
// The layout is the restart contract: a directory with neither
// result.json nor status.json is a job the daemon still owes the
// submitter, and the recovery scan re-queues it. Sequence-numbered IDs
// sort lexicographically, so recovery preserves the original FIFO
// order.
type Store struct {
	jobsDir string
	dataDir string

	mu        sync.Mutex
	nextSeq   int
	nextDSSeq int
}

// NewStore opens (creating if needed) the service root. dataDir, when
// non-empty, confines dataset references: specs may only name paths
// inside it.
func NewStore(root, dataDir string) (*Store, error) {
	jobsDir := filepath.Join(root, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating job root: %w", err)
	}
	st := &Store{jobsDir: jobsDir, dataDir: dataDir}
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		return nil, fmt.Errorf("service: scanning job root: %w", err)
	}
	for _, e := range entries {
		if seq, ok := parseJobID(e.Name()); ok && seq > st.nextSeq {
			st.nextSeq = seq
		}
	}
	if dsEntries, err := os.ReadDir(st.datasetsDir()); err == nil {
		for _, e := range dsEntries {
			if seq, ok := parseDatasetID(e.Name()); ok && seq > st.nextDSSeq {
				st.nextDSSeq = seq
			}
		}
	}
	return st, nil
}

const jobIDPrefix = "job-"

func formatJobID(seq int) string { return fmt.Sprintf("%s%06d", jobIDPrefix, seq) }

func parseJobID(id string) (seq int, ok bool) {
	rest, found := strings.CutPrefix(id, jobIDPrefix)
	if !found {
		return 0, false
	}
	seq, err := strconv.Atoi(rest)
	if err != nil || seq <= 0 {
		return 0, false
	}
	return seq, true
}

// specFile is the durable form of an accepted submission.
type specFile struct {
	ID          string    `json:"id"`
	Seq         int       `json:"seq"`
	SubmittedAt time.Time `json:"submitted_at"`
	Spec        JobSpec   `json:"spec"`
}

// statusFile records a terminal state that is not a result.
type statusFile struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// NewJob allocates the next job ID, creates its directory, and persists
// the spec — after which the job survives a daemon crash.
func (st *Store) NewJob(spec JobSpec) (*Job, error) {
	st.mu.Lock()
	st.nextSeq++
	seq := st.nextSeq
	st.mu.Unlock()
	id := formatJobID(seq)
	dir := st.JobDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating job dir: %w", err)
	}
	j := newJob(id, seq, spec, time.Now().UTC())
	sf := specFile{ID: id, Seq: seq, SubmittedAt: j.SubmittedAt, Spec: spec}
	if err := writeJSONFile(filepath.Join(dir, "spec.json"), sf); err != nil {
		return nil, err
	}
	return j, nil
}

// JobDir returns the job's directory.
func (st *Store) JobDir(id string) string { return filepath.Join(st.jobsDir, id) }

// JournalPath returns the job's run journal.
func (st *Store) JournalPath(id string) string {
	return filepath.Join(st.JobDir(id), "run.wal")
}

// WriteResult persists the successful outcome atomically (write-rename),
// so a crash can never leave a readable-but-truncated result: either the
// job looks done or it looks resumable.
func (st *Store) WriteResult(id string, res *JobResult) error {
	return writeJSONFile(filepath.Join(st.JobDir(id), "result.json"), res)
}

// ReadResult loads a completed job's result.
func (st *Store) ReadResult(id string) (*JobResult, error) {
	raw, err := os.ReadFile(filepath.Join(st.JobDir(id), "result.json"))
	if err != nil {
		return nil, err
	}
	var res JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("service: corrupt result for %s: %w", id, err)
	}
	return &res, nil
}

// WriteTerminal persists a failed/canceled verdict so recovery does not
// re-run the job.
func (st *Store) WriteTerminal(id string, state State, errMsg string) error {
	return writeJSONFile(filepath.Join(st.JobDir(id), "status.json"), statusFile{State: state, Error: errMsg})
}

// ResolveData maps a spec's dataset reference to a real path. With a
// configured data directory the reference must stay inside it (no
// absolute paths, no ..-escapes); without one, any path goes.
func (st *Store) ResolveData(ref string) (string, error) {
	if ref == "" {
		return "", fmt.Errorf("service: empty dataset reference")
	}
	if st.dataDir == "" {
		return ref, nil
	}
	if filepath.IsAbs(ref) {
		return "", fmt.Errorf("service: dataset reference %q must be relative to the data directory", ref)
	}
	clean := filepath.Clean(ref)
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("service: dataset reference %q escapes the data directory", ref)
	}
	return filepath.Join(st.dataDir, clean), nil
}

// Recover scans the job root and rebuilds the in-memory jobs in FIFO
// order. Jobs with a result are done; jobs with a terminal status keep
// it; everything else — including a job whose journal holds a partial
// (or even complete) run — is re-queued, and the journal replay
// guarantees already-purchased SMC verdicts are never bought again.
func (st *Store) Recover() ([]*Job, error) {
	entries, err := os.ReadDir(st.jobsDir)
	if err != nil {
		return nil, fmt.Errorf("service: scanning job root: %w", err)
	}
	var jobs []*Job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, ok := parseJobID(e.Name()); !ok {
			continue
		}
		j, err := st.recoverOne(e.Name())
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Seq < jobs[b].Seq })
	return jobs, nil
}

func (st *Store) recoverOne(id string) (*Job, error) {
	dir := st.JobDir(id)
	raw, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return nil, fmt.Errorf("service: job %s has no readable spec: %w", id, err)
	}
	var sf specFile
	if err := json.Unmarshal(raw, &sf); err != nil {
		return nil, fmt.Errorf("service: job %s has a corrupt spec: %w", id, err)
	}
	j := newJob(id, sf.Seq, sf.Spec, sf.SubmittedAt)

	if _, err := os.Stat(filepath.Join(dir, "result.json")); err == nil {
		j.state = StateDone
		close(j.settled)
		return j, nil
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "status.json")); err == nil {
		var stf statusFile
		if err := json.Unmarshal(raw, &stf); err == nil && stf.State.Terminal() {
			j.state = stf.State
			j.errMsg = stf.Error
			close(j.settled)
			return j, nil
		}
	}
	// In-flight at the previous daemon's death: back to the queue.
	j.markRecovered()
	return j, nil
}

// writeJSONFile writes v as indented JSON via a temp file + rename, so
// readers (and the recovery scan) never observe a partial document.
func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encoding %s: %w", filepath.Base(path), err)
	}
	return publishFile(path, append(raw, '\n'))
}

// publishFile puts raw at path atomically: temp file, then rename.
func publishFile(path string, raw []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("service: writing %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: publishing %s: %w", filepath.Base(path), err)
	}
	return nil
}
