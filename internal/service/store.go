package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Store owns the service's on-disk layout. Jobs and live datasets are one
// durable resource: a sequence-numbered directory under the kind's root, a
// spec file written before the resource exists, a payload, and a
// status.json terminal verdict.
//
//	<root>/jobs/job-000001/
//	    spec.json     the accepted submission (written before queuing)
//	    run.wal       the core pipeline's journal (written while running)
//	    result.json   the final labeling summary (written on success)
//	    status.json   the terminal state of a failed or canceled job
//	<root>/datasets/ds-000001/
//	    dataset.json  the registration (written before the dataset exists)
//	    batches.jsonl the accepted append batches, in order: one compact
//	                  JSON line per accept, appended with one write
//	    ingest.wal    the incremental engine's batch journal
//	    status.json   the terminal failure of an ingest
//
// The layout is the restart contract. A resource with no terminal verdict
// (status.json, or a job's result.json) is one the daemon still owes, and
// the recovery scan brings it back in sequence (FIFO) order: a job is
// re-queued, a dataset re-Appends every stored batch. Either way the
// journal replays what was already purchased at zero live cost. A crash
// writes no verdict, so it resumes; a real failure or a cancellation does.
// batches.jsonl is always a superset of the journal's batches — the entry
// is persisted before the engine sees the batch — so a crash between the
// two leaves a batch that re-processes fresh, and the engine's per-batch
// digests refuse a batch file that changed since it was accepted.
type Store struct {
	root    string
	dataDir string

	mu  sync.Mutex
	seq map[*kind]int
}

// kind is one durable resource type.
type kind struct {
	noun, dir, prefix string
	// specName is the file that brings a resource into existence, walName
	// its journal.
	specName, walName string
}

var (
	jobKind     = &kind{"job", "jobs", "job-", "spec.json", "run.wal"}
	datasetKind = &kind{"dataset", "datasets", "ds-", "dataset.json", "ingest.wal"}
)

func (k *kind) id(seq int) string { return fmt.Sprintf("%s%06d", k.prefix, seq) }

func (k *kind) parse(id string) (seq int, ok bool) {
	rest, found := strings.CutPrefix(id, k.prefix)
	if !found {
		return 0, false
	}
	seq, err := strconv.Atoi(rest)
	if err != nil || seq <= 0 {
		return 0, false
	}
	return seq, true
}

// NewStore opens (creating if needed) the service root. dataDir, when
// non-empty, confines dataset references: specs may only name paths
// inside it.
func NewStore(root, dataDir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(root, jobKind.dir), 0o755); err != nil {
		return nil, fmt.Errorf("service: creating job root: %w", err)
	}
	st := &Store{root: root, dataDir: dataDir, seq: make(map[*kind]int)}
	for _, k := range []*kind{jobKind, datasetKind} {
		ids, err := st.ids(k)
		if err != nil {
			return nil, err
		}
		if len(ids) > 0 {
			st.seq[k], _ = k.parse(ids[len(ids)-1])
		}
	}
	return st, nil
}

// Dir returns a resource's directory.
func (st *Store) Dir(k *kind, id string) string { return filepath.Join(st.root, k.dir, id) }

func (st *Store) path(k *kind, id, name string) string { return filepath.Join(st.Dir(k, id), name) }

// JournalPath returns a resource's journal.
func (st *Store) JournalPath(k *kind, id string) string { return st.path(k, id, k.walName) }

// ids lists k's resource directories in sequence order.
func (st *Store) ids(k *kind) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(st.root, k.dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: scanning %s root: %w", k.noun, err)
	}
	var ids []string
	for _, e := range entries {
		if _, ok := k.parse(e.Name()); ok && e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	slices.SortFunc(ids, func(a, b string) int {
		x, _ := k.parse(a)
		y, _ := k.parse(b)
		return cmp.Compare(x, y)
	})
	return ids, nil
}

// specFile is the durable form of an accepted job submission.
type specFile struct {
	ID          string    `json:"id"`
	Seq         int       `json:"seq"`
	SubmittedAt time.Time `json:"submitted_at"`
	Spec        JobSpec   `json:"spec"`
}

// datasetFile is the durable form of a dataset registration.
type datasetFile struct {
	ID        string      `json:"id"`
	Seq       int         `json:"seq"`
	CreatedAt time.Time   `json:"created_at"`
	Spec      DatasetSpec `json:"spec"`
}

// statusFile is a terminal verdict.
type statusFile struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// register allocates k's next id, creates its directory and persists the
// spec file head renders for it, after which the resource survives a
// daemon crash.
func register[H any](st *Store, k *kind, head func(id string, seq int) H) (H, error) {
	st.mu.Lock()
	st.seq[k]++
	seq := st.seq[k]
	st.mu.Unlock()
	id := k.id(seq)
	h := head(id, seq)
	if err := os.MkdirAll(st.Dir(k, id), 0o755); err != nil {
		return h, fmt.Errorf("service: creating %s dir: %w", k.noun, err)
	}
	return h, writeJSONFile(st.path(k, id, k.specName), h)
}

// found is one resource on disk at daemon start.
type found[H any] struct {
	ID   string
	Head H
	// Verdict is the persisted terminal state; its State is empty while
	// the resource is still owed.
	Verdict statusFile
}

// scan reads every resource of kind k, in sequence order: its spec file
// and its terminal verdict, when one exists.
func scan[H any](st *Store, k *kind) ([]found[H], error) {
	ids, err := st.ids(k)
	if err != nil {
		return nil, err
	}
	out := make([]found[H], len(ids))
	for i, id := range ids {
		f := &out[i]
		f.ID = id
		raw, err := os.ReadFile(st.path(k, id, k.specName))
		if err == nil {
			err = json.Unmarshal(raw, &f.Head)
		}
		if err != nil {
			return nil, fmt.Errorf("service: %s %s has no readable %s: %w", k.noun, id, k.specName, err)
		}
		if raw, err := os.ReadFile(st.path(k, id, "status.json")); err == nil {
			// An unreadable verdict is no verdict: the resource is still owed.
			if json.Unmarshal(raw, &f.Verdict) != nil || !f.Verdict.State.Terminal() {
				f.Verdict = statusFile{}
			}
		}
	}
	return out, nil
}

// WriteTerminal persists a terminal verdict, after which recovery neither
// re-runs the job nor replays the dataset.
func (st *Store) WriteTerminal(k *kind, id string, state State, errMsg string) error {
	return writeJSONFile(st.path(k, id, "status.json"), statusFile{State: state, Error: errMsg})
}

// WriteResult persists a job's successful outcome atomically
// (write-rename), so a crash can never leave a readable-but-truncated
// result: either the job looks done or it looks resumable.
func (st *Store) WriteResult(id string, res *JobResult) error {
	return writeJSONFile(st.path(jobKind, id, "result.json"), res)
}

// ReadResult loads a completed job's result.
func (st *Store) ReadResult(id string) (*JobResult, error) {
	raw, err := os.ReadFile(st.path(jobKind, id, "result.json"))
	if err != nil {
		return nil, err
	}
	var res JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("service: corrupt result for %s: %w", id, err)
	}
	return &res, nil
}

// hasResult reports whether a job completed.
func (st *Store) hasResult(id string) bool {
	_, err := os.Stat(st.path(jobKind, id, "result.json"))
	return err == nil
}

// batchEntry is one accepted append batch: which side grew and the
// server-side CSV reference holding its records. The reference — not a
// copy of the records — is the durable form; the engine's recBatch
// digest watermark detects a reference whose content changed.
type batchEntry struct {
	Batch int       `json:"batch"`
	Side  int       `json:"side"`
	Ref   string    `json:"ref"`
	At    time.Time `json:"at"`
}

// batchesPath is the dataset's append schedule.
func (st *Store) batchesPath(id string) string { return st.path(datasetKind, id, "batches.jsonl") }

// AppendBatchEntry accepts one append batch by adding its line to the
// schedule with one O_APPEND write: nothing is read back, re-encoded or
// renamed, so an accept costs the same at batch 10,000 as at batch 1. The
// caller numbers the entries (under the dataset lock); a crash can tear
// only the final line, which was then never acknowledged — the 202
// follows the write — and which ReadBatchEntries removes.
func (st *Store) AppendBatchEntry(id string, e batchEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("service: encoding batch entry %d for %s: %w", e.Batch, id, err)
	}
	f, err := os.OpenFile(st.batchesPath(id), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("service: appending batch entry %d for %s: %w", e.Batch, id, err)
	}
	return nil
}

// convertLegacySchedule turns the batches.json array an older build kept
// into the line file — published whole, so a crash before that converts
// again — retires the array, and returns the lines.
func (st *Store) convertLegacySchedule(id string) ([]byte, error) {
	legacy := st.path(datasetKind, id, "batches.json")
	raw, err := os.ReadFile(legacy)
	if os.IsNotExist(err) {
		return nil, nil
	}
	var old []batchEntry
	if err == nil {
		err = json.Unmarshal(raw, &old)
	}
	var lines []byte
	for _, e := range old {
		line, _ := json.Marshal(e) // it was just decoded from JSON
		lines = append(append(lines, line...), '\n')
	}
	if err == nil {
		err = publishFile(st.batchesPath(id), lines)
	}
	if err == nil {
		err = os.Remove(legacy)
	}
	return lines, err
}

// ReadBatchEntries loads the accepted batch schedule at recovery and
// leaves the file safe to append to: a torn final line (no newline) is
// truncated away first. A dataset with no appends yet has no entries.
func (st *Store) ReadBatchEntries(id string) ([]batchEntry, error) {
	raw, err := os.ReadFile(st.batchesPath(id))
	if os.IsNotExist(err) {
		raw, err = st.convertLegacySchedule(id)
	}
	if err != nil {
		return nil, fmt.Errorf("service: reading batches for %s: %w", id, err)
	}
	whole := bytes.LastIndexByte(raw, '\n') + 1
	if whole < len(raw) {
		if err := os.Truncate(st.batchesPath(id), int64(whole)); err != nil {
			return nil, fmt.Errorf("service: truncating the torn batch entry of %s: %w", id, err)
		}
	}
	var entries []batchEntry
	for dec := json.NewDecoder(bytes.NewReader(raw[:whole])); dec.More(); {
		var e batchEntry
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("service: corrupt batch schedule for %s: %w", id, err)
		}
		if e.Batch != len(entries) {
			return nil, fmt.Errorf("service: batch schedule for %s holds entry %d where %d belongs", id, e.Batch, len(entries))
		}
		entries = append(entries, e)
	}
	return entries, nil
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
