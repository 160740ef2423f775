// Package service implements the linkage job service behind pprl-serve:
// a JSON HTTP API that queues linkage jobs, a bounded FIFO scheduler
// that runs them through the core pipeline with per-job cancellation,
// and a journal-backed store that survives daemon restarts — an
// interrupted job resumes from its per-job journal with zero re-spent
// SMC allowance (see DESIGN.md §9).
//
// The API serves only querying-party-visible data: job summaries,
// progress counters, and matched record-index pairs. Raw records,
// anonymized views and key material never cross it (SECURITY.md).
package service

import (
	"errors"
	"fmt"
	"time"

	"pprl/internal/cliutil"
	"pprl/internal/core"
	"pprl/internal/metrics"
)

// JobSpec is the body of POST /v1/jobs: dataset references plus the
// linkage parameters. Dataset references are server-side paths resolved
// by the store (relative to its data directory when one is configured);
// the daemon never accepts record data over the API. The embedded block's
// keys (schema_path, qids, theta, allowance, heuristic, strategy, tier,
// tier_low, secure, key_bits, smc_workers) sit beside the ones below in the
// request body; its epsilon, dp_delta and dp_seed are refused (ErrNoDP).
type JobSpec struct {
	// AlicePath and BobPath reference the two holders' CSV relations.
	AlicePath string `json:"alice_path"`
	BobPath   string `json:"bob_path"`

	cliutil.Params

	// K is the anonymity requirement for both holders (default 32).
	K int `json:"k,omitempty"`
	// AllowanceFraction is the SMC budget as a fraction of all record
	// pairs (default 0.015); the block's absolute Allowance, when set,
	// takes precedence.
	AllowanceFraction float64 `json:"allowance_fraction,omitempty"`
	// Anonymizer takes the CLI's k-anonymizer names (see cliutil); empty
	// selects the paper's max-entropy method. "dp" is refused (ErrNoDP).
	Anonymizer string `json:"anonymizer,omitempty"`
	// Distributed stripes the SMC step across the daemon's registered
	// worker fleet (pprl-party -role worker) instead of running it
	// in-process. Combines with Secure: each worker then runs the real
	// Paillier protocol under its own fresh key. Rejected at submit time
	// when the daemon has no fleet configured.
	Distributed bool `json:"distributed,omitempty"`
	// Seed drives the TrainClassifier strategy's random selection.
	Seed int64 `json:"seed,omitempty"`
	// Evaluate additionally scores the result against exact ground
	// truth, which the daemon can compute because it holds both files.
	Evaluate bool `json:"evaluate,omitempty"`

	// IdempotencyKey deduplicates retried submissions: a second POST
	// with the same key returns the first job instead of spending the
	// SMC budget twice.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// ErrNoDP refuses differentially private blocking on both API bodies, and
// fails a stored spec that asks for it: a job at execution, a dataset at
// every start (its result, if the job finished, is still served). The
// daemon holds both sides' records and serves no view, so a noised
// release would protect no one (SECURITY.md).
var ErrNoDP = errors.New("epsilon, dp_delta, dp_seed and anonymizer dp are refused: pprl-serve runs every party in one process, so DP blocking protects no one here; run it across a real boundary with pprl-party")

// refuseDP is the API's one ε check.
func refuseDP(p *cliutil.Params, anonymizer string) error {
	if p.Epsilon != 0 || p.DPDelta != 0 || p.DPSeed != 0 || cliutil.IsDPName(anonymizer) {
		return ErrNoDP
	}
	return nil
}

// Validate checks the parts of a spec that must be rejected at submit
// time (before the job ever reaches the queue).
func (s *JobSpec) Validate() error {
	if s.AlicePath == "" || s.BobPath == "" {
		return fmt.Errorf("alice_path and bob_path are required")
	}
	if s.K < 0 {
		return fmt.Errorf("negative parameters are invalid")
	}
	if _, err := s.Config(nil); err != nil { // ε and the anonymizer name
		return err
	}
	if err := s.Params.Validate(cliutil.JSONNames); err != nil {
		return err
	}
	if s.AllowanceFraction != 0 {
		return cliutil.AllowanceFractionRange.Named("allowance_fraction").Validate(s.AllowanceFraction)
	}
	return nil
}

// Config materializes the core pipeline configuration the spec
// describes. Validate must have accepted the spec.
func (s *JobSpec) Config(qids []string) (core.Config, error) {
	if err := refuseDP(&s.Params, s.Anonymizer); err != nil {
		return core.Config{}, err
	}
	cfg, err := s.Core(qids)
	if err != nil {
		return cfg, err
	}
	if s.K > 0 {
		cfg.AliceK, cfg.BobK = s.K, s.K
	}
	if s.AllowanceFraction > 0 {
		cfg.AllowanceFraction = s.AllowanceFraction
	}
	anon, err := cliutil.AnonymizerByName(s.Anonymizer)
	if err != nil {
		return cfg, err
	}
	cfg.AliceAnonymizer, cfg.BobAnonymizer = anon, anon
	cfg.Seed = s.Seed
	return cfg, nil
}

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: accepted, waiting for a worker slot (FIFO).
	StateQueued State = "queued"
	// StateRunning: executing on a scheduler worker.
	StateRunning State = "running"
	// StateDone: completed; the result endpoint serves its labeling.
	StateDone State = "done"
	// StateFailed: terminated with an error recorded in the status.
	StateFailed State = "failed"
	// StateCanceled: removed by DELETE before or during execution.
	StateCanceled State = "canceled"
	// StateInterrupted: checkpointed mid-run (daemon drain or crash);
	// the next daemon start resumes it from its journal.
	StateInterrupted State = "interrupted"
)

// Terminal reports whether a job in this state will never run again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Progress is the live position of a running job, fed by the core
// pipeline's progress hook.
type Progress struct {
	// Phase is the latest stage event, in order "anonymize-alice",
	// "anonymize-bob", "dp-noise" (DP only), "blocking", "order", "tier"
	// (tier only), "comparator", "smc" (core.Config.Progress).
	Phase string `json:"phase"`
	// Done and Total are the stage's position; for the "smc" phase they
	// are pairs purchased vs the resolved allowance.
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
	// Stages is the wall-clock time of every stage so far, in order: each
	// runs from the previous stage's last event to its own last event.
	Stages metrics.Times `json:"stages"`
}

// JobStatus is the wire form of GET /v1/jobs/{id} and the events stream.
type JobStatus struct {
	ID          string    `json:"id"`
	State       State     `json:"state"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	// Resumed counts how many times daemon restarts re-queued this job
	// from its journal.
	Resumed int `json:"resumed,omitempty"`
	// Progress is present while the job runs (and retains the last
	// position afterwards).
	Progress *Progress `json:"progress,omitempty"`
}

// JobResult is the wire form of GET /v1/jobs/{id}/result: the stable
// Result summary, the matched record-index pairs (the querying party's
// output), and the optional ground-truth evaluation.
type JobResult struct {
	Result  core.ResultJSON `json:"result"`
	Matches [][2]int        `json:"matches"`
	// Evaluation is present when the spec requested it.
	Evaluation *metrics.Confusion `json:"evaluation,omitempty"`
	// TruthPairs is the ground-truth match count behind Evaluation.
	TruthPairs int `json:"truth_pairs,omitempty"`
}

// apiError is the uniform error body. Kind and Retryable classify the
// failure (see ErrKind): retryable errors also carry a Retry-After
// header, terminal ones mean the request must change before resending.
type apiError struct {
	Error     string  `json:"error"`
	Kind      ErrKind `json:"kind,omitempty"`
	Retryable bool    `json:"retryable,omitempty"`
}
