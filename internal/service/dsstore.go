package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Live datasets get the same directory-per-resource layout as jobs:
//
//	<root>/datasets/ds-000001/
//	    dataset.json  the registration (written before the dataset exists)
//	    batches.jsonl the accepted append batches, in order: one compact
//	                  JSON line per accept, appended with one write
//	    ingest.wal    the incremental engine's batch journal
//	    status.json   a terminal failure verdict, when one exists
//
// The restart contract: batches.jsonl is the authoritative append
// schedule and ingest.wal the verdict history. Recovery re-Appends every
// stored batch in order; the journal replays the committed prefix at
// zero live cost and the engine's per-batch digests refuse a batch file
// that changed since it was accepted. batches.jsonl is always a superset
// of the journal's frames — the entry is persisted before the engine
// sees the batch — so a crash between the two leaves a batch that
// simply re-processes fresh on resume.

const dsIDPrefix = "ds-"

func formatDatasetID(seq int) string { return fmt.Sprintf("%s%06d", dsIDPrefix, seq) }

func parseDatasetID(id string) (seq int, ok bool) {
	rest, found := strings.CutPrefix(id, dsIDPrefix)
	if !found {
		return 0, false
	}
	seq, err := strconv.Atoi(rest)
	if err != nil || seq <= 0 {
		return 0, false
	}
	return seq, true
}

// datasetFile is the durable form of a registration.
type datasetFile struct {
	ID        string      `json:"id"`
	Seq       int         `json:"seq"`
	CreatedAt time.Time   `json:"created_at"`
	Spec      DatasetSpec `json:"spec"`
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

// datasetsDir is the dataset root, sibling of jobsDir.
func (st *Store) datasetsDir() string {
	return filepath.Join(filepath.Dir(st.jobsDir), "datasets")
}

// DatasetDir returns the dataset's directory.
func (st *Store) DatasetDir(id string) string {
	return filepath.Join(st.datasetsDir(), id)
}

// DatasetJournalPath returns the dataset's ingest journal.
func (st *Store) DatasetJournalPath(id string) string {
	return filepath.Join(st.DatasetDir(id), "ingest.wal")
}

// NewDataset allocates the next dataset ID and persists the
// registration, after which the dataset survives a daemon crash.
func (st *Store) NewDataset(spec DatasetSpec) (*datasetFile, error) {
	if err := os.MkdirAll(st.datasetsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("service: creating dataset root: %w", err)
	}
	st.mu.Lock()
	st.nextDSSeq++
	seq := st.nextDSSeq
	st.mu.Unlock()
	id := formatDatasetID(seq)
	if err := os.MkdirAll(st.DatasetDir(id), 0o755); err != nil {
		return nil, fmt.Errorf("service: creating dataset dir: %w", err)
	}
	df := &datasetFile{ID: id, Seq: seq, CreatedAt: time.Now().UTC(), Spec: spec}
	if err := writeJSONFile(filepath.Join(st.DatasetDir(id), "dataset.json"), df); err != nil {
		return nil, err
	}
	return df, nil
}

// batchesPath is the dataset's append schedule.
func (st *Store) batchesPath(id string) string {
	return filepath.Join(st.DatasetDir(id), "batches.jsonl")
}

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
	legacy := filepath.Join(st.DatasetDir(id), "batches.json")
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

// WriteDatasetTerminal persists a real (non-crash) ingest failure so
// recovery does not replay into the same wall; crashes write nothing
// and therefore resume.
func (st *Store) WriteDatasetTerminal(id, errMsg string) error {
	return writeJSONFile(filepath.Join(st.DatasetDir(id), "status.json"),
		statusFile{State: StateFailed, Error: errMsg})
}

// recoveredDataset is one dataset found on disk at daemon start.
type recoveredDataset struct {
	File    datasetFile
	Batches []batchEntry
	// Failed carries a persisted terminal failure; such a dataset is
	// surfaced read-only instead of replayed.
	Failed string
}

// RecoverDatasets scans the dataset root in registration order.
func (st *Store) RecoverDatasets() ([]recoveredDataset, error) {
	entries, err := os.ReadDir(st.datasetsDir())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: scanning dataset root: %w", err)
	}
	var out []recoveredDataset
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, ok := parseDatasetID(e.Name()); !ok {
			continue
		}
		rd, err := st.recoverDataset(e.Name())
		if err != nil {
			return nil, err
		}
		out = append(out, rd)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].File.Seq < out[b].File.Seq })
	return out, nil
}

func (st *Store) recoverDataset(id string) (recoveredDataset, error) {
	var rd recoveredDataset
	raw, err := os.ReadFile(filepath.Join(st.DatasetDir(id), "dataset.json"))
	if err != nil {
		return rd, fmt.Errorf("service: dataset %s has no readable registration: %w", id, err)
	}
	if err := json.Unmarshal(raw, &rd.File); err != nil {
		return rd, fmt.Errorf("service: dataset %s has a corrupt registration: %w", id, err)
	}
	if rd.Batches, err = st.ReadBatchEntries(id); err != nil {
		return rd, err
	}
	if raw, err := os.ReadFile(filepath.Join(st.DatasetDir(id), "status.json")); err == nil {
		var stf statusFile
		if err := json.Unmarshal(raw, &stf); err == nil && stf.State == StateFailed {
			rd.Failed = stf.Error
		}
	}
	return rd, nil
}
