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
	"time"

	"pprl/internal/cliutil"
	"pprl/internal/core"
	"pprl/internal/metrics"
)

// JobSpec is the body of POST /v1/jobs: the frozen run (cliutil.Job —
// dataset references, the parameter block, k, allowance_fraction,
// anonymizer, seed, evaluate) plus what only the daemon does with it.
// Dataset references are server-side paths resolved by the store
// (relative to its data directory when one is configured); the daemon
// never accepts record data over the API. An absent k or
// allowance_fraction selects its default (32, 0.015); epsilon, dp_delta,
// dp_seed and anonymizer "dp" are refused (ErrNoDP).
type JobSpec struct {
	cliutil.Job

	// Distributed stripes the SMC step across the daemon's registered
	// worker fleet (pprl-party -role worker) instead of running it
	// in-process. Combines with Secure: each worker then runs the real
	// Paillier protocol under its own fresh key. Rejected at submit time
	// when the daemon has no fleet configured.
	Distributed bool `json:"distributed,omitempty"`

	// IdempotencyKey deduplicates retried submissions: a second POST
	// with the same key returns the first job instead of spending the
	// SMC budget twice.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// JobResult is the wire form of GET /v1/jobs/{id}/result, the document
// the frozen run returns.
type JobResult = cliutil.JobResult

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

// job is the frozen run the spec asks for, with the API's meaning of
// zero applied: an absent k or allowance_fraction selects its default.
func (s *JobSpec) job() (cliutil.Job, error) {
	j := s.Job
	if err := refuseDP(&j.Params, j.Anonymizer); err != nil {
		return j, err
	}
	def := core.DefaultConfig(nil)
	if j.K == 0 {
		j.K = def.AliceK
	}
	if j.AllowanceFraction == 0 {
		j.AllowanceFraction = def.AllowanceFraction
	}
	return j, nil
}

// Validate refuses, at submit time, a spec no run could use.
func (s *JobSpec) Validate() error {
	j, err := s.job()
	if err != nil {
		return err
	}
	return j.Validate(cliutil.JSONNames)
}

// Config materializes the core pipeline configuration a stored spec runs
// under. Validate must have accepted the spec.
func (s *JobSpec) Config(qids []string) (core.Config, error) {
	j, err := s.job()
	if err != nil {
		return core.Config{}, err
	}
	return j.Config(qids)
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

// apiError is the uniform error body. Kind and Retryable classify the
// failure (see ErrKind): retryable errors also carry a Retry-After
// header, terminal ones mean the request must change before resending.
type apiError struct {
	Error     string  `json:"error"`
	Kind      ErrKind `json:"kind,omitempty"`
	Retryable bool    `json:"retryable,omitempty"`
}
