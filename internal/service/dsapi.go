package service

import (
	"time"

	"pprl/internal/cliutil"
	"pprl/internal/incremental"
)

// DatasetSpec is the body of POST /v1/datasets: the linkage parameters a
// live dataset is registered under — the same block a job takes (a
// "classifier" strategy is refused: it needs the full residual
// population; Allowance is the lifetime pool shared by every batch and 0
// means unlimited, there being no fixed pair matrix to take a fraction
// of; epsilon, dp_delta and dp_seed are refused, ErrNoDP). They are
// pinned for the dataset's lifetime — the delta-equivalence contract
// (DESIGN.md §15) is stated against one fixed configuration, so there is
// no way to edit a registration; register a new dataset instead.
type DatasetSpec struct {
	cliutil.Params

	// Level is the fixed binning depth below each hierarchy root (0 =
	// default). It replaces the frozen pipeline's anonymizer choice:
	// live datasets need bins that stay put as records arrive, which
	// only the fixed-level binner provides.
	Level int `json:"level,omitempty"`
	// Dedup links the dataset against itself: one side, unordered delta
	// pairs i < j. Append batches must then target side "alice".
	Dedup bool `json:"dedup,omitempty"`
}

// Validate rejects registrations at the door, before any state exists:
// the block must be valid, the schema must load through resolve, and the
// live engine must build over it. A registration is persisted once it is
// accepted, so one that failed after this point could never be started
// again, by this daemon or the next.
func (s *DatasetSpec) Validate(resolve func(ref string) (string, error)) error {
	cfg, err := s.Config(nil)
	if err != nil {
		return err
	}
	if err := s.Params.Validate(cliutil.JSONNames); err != nil {
		return err
	}
	if err := s.OneLane(cliutil.JSONNames); err != nil {
		return err
	}
	schema, qids, err := s.LoadSchema(resolve)
	if err != nil {
		return err
	}
	cfg.QIDs = qids
	_, err = incremental.New(schema, cfg) // no journal: a dry run
	return err
}

// Config materializes the incremental engine configuration.
func (s *DatasetSpec) Config(qids []string) (incremental.Config, error) {
	if err := refuseDP(&s.Params, ""); err != nil {
		return incremental.Config{}, err
	}
	cfg, err := s.Incremental(qids)
	cfg.Level, cfg.Dedup = s.Level, s.Dedup
	return cfg, err
}

// DatasetState is a live dataset's lifecycle position.
type DatasetState string

const (
	// DatasetReplaying: the daemon is re-applying journaled batches after
	// a restart; new appends queue behind the replay.
	DatasetReplaying DatasetState = "replaying"
	// DatasetActive: accepting appends and emitting deltas.
	DatasetActive DatasetState = "active"
	// DatasetFailed: an append failed; the engine refuses further batches
	// until the daemon restarts and rebuilds it from the journal.
	DatasetFailed DatasetState = "failed"
)

// DatasetStatus is the wire form of GET /v1/datasets/{id}.
type DatasetStatus struct {
	ID        string       `json:"id"`
	State     DatasetState `json:"state"`
	Error     string       `json:"error,omitempty"`
	Dedup     bool         `json:"dedup,omitempty"`
	CreatedAt time.Time    `json:"created_at"`
	// Accepted counts batches durably accepted (persisted, queued or
	// applied); Applied counts batches the engine has absorbed. Deltas
	// for batches < Applied are final and queryable.
	Accepted int `json:"accepted_batches"`
	Applied  int `json:"applied_batches"`
	// Stats is the engine's lifetime accounting snapshot.
	Stats incremental.Stats `json:"stats"`
}

// AppendRequest is the body of POST /v1/datasets/{id}/records: one batch
// of records as a server-side CSV reference (the daemon never accepts
// record data over the API, exactly as with job submissions).
type AppendRequest struct {
	// Side is "alice" (default) or "bob"; dedup datasets accept only
	// "alice".
	Side string `json:"side,omitempty"`
	// Path references the batch's CSV relation.
	Path string `json:"path"`
}

// AppendAck is the 202 response: the batch is durable and queued; its
// deltas appear under the returned batch index once applied.
type AppendAck struct {
	Dataset string `json:"dataset"`
	Batch   int    `json:"batch"`
	Side    int    `json:"side"`
	Records int    `json:"records"`
}

// DeltasResponse is the body of GET /v1/datasets/{id}/deltas?from=N: the
// Match pairs discovered by batches [from, next), which are exactly the
// pairs a consumer who integrated batches < from is missing. Polling
// with from=next never re-reads a delta. On the wire the deltas are
// positional runs, each a stretch of one batch's deltas that share one
// record, [batch,axis,k,k_id,o₁,o₁_id,…] (deltapage.go). Here batch 3
// matched alice record 12 to bob records 40 and 41, and batch 4 bob
// record 7 to alice records 30 and 31:
//
//	{"dataset":"ds-000001","from":3,"next":5,"deltas":[[3,0,12,1012,40,2040,41,2041],[4,1,7,2007,30,1030,31,1031]]}
type DeltasResponse struct {
	Dataset string
	From    int
	Next    int
	Deltas  []incremental.Delta
}
