package service

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"pprl/internal/cliutil"
	"pprl/internal/core"
	"pprl/internal/incremental"
)

// DatasetSpec is the body of POST /v1/datasets: the linkage parameters a
// live dataset is registered under. They are pinned for the dataset's
// lifetime — the delta-equivalence contract (DESIGN.md §15) is stated
// against one fixed configuration, so there is no way to edit a
// registration; register a new dataset instead.
type DatasetSpec struct {
	// SchemaPath references a schema manifest (server-side, confined to
	// the data directory when one is configured); empty selects the
	// built-in Adult schema.
	SchemaPath string `json:"schema_path,omitempty"`
	// QIDs are the quasi-identifier attributes; empty selects the paper's
	// default Adult set (or every schema attribute for a custom schema).
	QIDs []string `json:"qids,omitempty"`
	// Theta is the uniform matching threshold (default 0.05).
	Theta float64 `json:"theta,omitempty"`
	// Level is the fixed binning depth below each hierarchy root (0 =
	// default). It replaces the frozen pipeline's anonymizer choice:
	// live datasets need insertion-stable bins, which only the
	// fixed-level binner provides.
	Level int `json:"level,omitempty"`
	// Allowance is the absolute lifetime SMC pool shared by every batch;
	// 0 means unlimited. There is no fraction form — the pair matrix it
	// would be a fraction of grows forever.
	Allowance int64 `json:"allowance,omitempty"`
	// Heuristic and Strategy take the CLI names; "classifier" is
	// rejected (it needs the full residual population).
	Heuristic string `json:"heuristic,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	// Epsilon > 0 runs the dataset under differentially private blocking.
	// Every append extends the same (ε, δ)-released histogram — see
	// SECURITY.md on repeated releases against a growing dataset.
	Epsilon float64 `json:"epsilon,omitempty"`
	DPDelta float64 `json:"dp_delta,omitempty"`
	DPSeed  int64   `json:"dp_seed,omitempty"`
	// Tier selects the triage tier: "off" (default) or "bloom".
	Tier     string  `json:"tier,omitempty"`
	TierHigh float64 `json:"tier_high,omitempty"`
	TierLow  float64 `json:"tier_low,omitempty"`
	// Secure runs the real Paillier protocol with KeyBits keys; false
	// uses the plaintext cost-model oracle.
	Secure  bool `json:"secure,omitempty"`
	KeyBits int  `json:"key_bits,omitempty"`
	// SMCWorkers is the SMC parallelism.
	SMCWorkers int `json:"smc_workers,omitempty"`
	// Dedup links the dataset against itself: one side, unordered delta
	// pairs i < j. Append batches must then target side "alice".
	Dedup bool `json:"dedup,omitempty"`
	// QueueDepth bounds the per-dataset ingest queue (default 8). A POST
	// arriving at a full queue gets 503 + Retry-After, not a block.
	QueueDepth int `json:"queue_depth,omitempty"`
}

// Validate rejects registrations at the door, before any state exists.
func (s *DatasetSpec) Validate() error {
	if s.Theta != 0 {
		if err := cliutil.ThetaRange.Named("theta").Validate(s.Theta); err != nil {
			return err
		}
	}
	if s.Allowance < 0 || s.Level < 0 || s.QueueDepth < 0 {
		return fmt.Errorf("negative parameters are invalid")
	}
	if err := validKeyBits(s.KeyBits); err != nil {
		return err
	}
	if _, err := cliutil.HeuristicByName(s.Heuristic); err != nil {
		return err
	}
	strat, err := cliutil.StrategyByName(s.Strategy)
	if err != nil {
		return err
	}
	if strat == core.TrainClassifier {
		return fmt.Errorf("strategy %q needs the full residual population and cannot run incrementally", s.Strategy)
	}
	if s.Epsilon != 0 || s.DPDelta != 0 || s.DPSeed != 0 {
		if err := cliutil.EpsilonRange.Named("epsilon").Validate(s.Epsilon); err != nil {
			return err
		}
		if s.DPDelta != 0 {
			if err := cliutil.DeltaRange.Named("dp_delta").Validate(s.DPDelta); err != nil {
				return err
			}
		}
	}
	if _, err := cliutil.TierModeByName(s.Tier); err != nil {
		return err
	}
	if err := cliutil.TierBand(s.TierLow, s.TierHigh); err != nil {
		return err
	}
	return nil
}

// Config materializes the incremental engine configuration. Validate
// must have accepted the spec.
func (s *DatasetSpec) Config(qids []string) (incremental.Config, error) {
	cfg := incremental.Config{
		QIDs:      qids,
		Theta:     s.Theta,
		Level:     s.Level,
		Allowance: s.Allowance,
		Epsilon:   s.Epsilon,
		DPDelta:   s.DPDelta,
		DPSeed:    s.DPSeed,
		TierHigh:  s.TierHigh,
		TierLow:   s.TierLow,
		Dedup:     s.Dedup,
	}
	var err error
	if cfg.Heuristic, err = cliutil.HeuristicByName(s.Heuristic); err != nil {
		return cfg, err
	}
	if cfg.Strategy, err = cliutil.StrategyByName(s.Strategy); err != nil {
		return cfg, err
	}
	if cfg.Tier, err = cliutil.TierModeByName(s.Tier); err != nil {
		return cfg, err
	}
	if s.Secure {
		keyBits := s.KeyBits
		if keyBits == 0 {
			keyBits = 1024
		}
		cfg.Comparator = core.SecureComparatorFactory(keyBits)
	}
	cfg.SMCWorkers = s.SMCWorkers
	return cfg, nil
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
// with from=next never re-reads a delta.
type DeltasResponse struct {
	Dataset string              `json:"dataset"`
	From    int                 `json:"from"`
	Next    int                 `json:"next"`
	Deltas  []incremental.Delta `json:"deltas"`
}

// pagePool holds the buffers delta pages are encoded in (≈ 150 KB a page
// at paper scale).
var pagePool = sync.Pool{New: func() any { return new([]byte) }}

// appendDeltasPage appends the DeltasResponse{dataset, from, next, deltas}
// — deltas being the batches' deltas end to end — to buf, byte for byte as
// encoding/json writes it (less the encoder's final newline) but without
// reflecting over every delta; an empty page has "deltas":[].
func appendDeltasPage(buf []byte, dataset string, from, next int, batches [][]incremental.Delta) []byte {
	id, _ := json.Marshal(dataset) // a string always encodes; this is json's escaping
	buf = append(append(buf, `{"dataset":`...), id...)
	buf = strconv.AppendInt(append(buf, `,"from":`...), int64(from), 10)
	buf = strconv.AppendInt(append(buf, `,"next":`...), int64(next), 10)
	buf = append(buf, `,"deltas":[`...)
	sep := ""
	for _, deltas := range batches {
		for _, d := range deltas {
			buf = strconv.AppendInt(append(append(buf, sep...), `{"batch":`...), int64(d.Batch), 10)
			buf = strconv.AppendInt(append(buf, `,"i":`...), int64(d.I), 10)
			buf = strconv.AppendInt(append(buf, `,"j":`...), int64(d.J), 10)
			buf = strconv.AppendInt(append(buf, `,"alice_id":`...), int64(d.AliceID), 10)
			buf = strconv.AppendInt(append(buf, `,"bob_id":`...), int64(d.BobID), 10)
			buf, sep = append(buf, '}'), ","
		}
	}
	return append(buf, "]}"...)
}
