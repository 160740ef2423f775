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
	"fmt"
	"strings"
	"time"

	"pprl/internal/cliutil"
	"pprl/internal/core"
	"pprl/internal/metrics"
	"pprl/internal/paillier"
)

// JobSpec is the body of POST /v1/jobs: dataset references plus the
// linkage parameters. Dataset references are server-side paths resolved
// by the store (relative to its data directory when one is configured);
// the daemon never accepts record data over the API.
type JobSpec struct {
	// AlicePath and BobPath reference the two holders' CSV relations.
	AlicePath string `json:"alice_path"`
	BobPath   string `json:"bob_path"`
	// SchemaPath references a schema manifest; empty selects the
	// built-in Adult schema.
	SchemaPath string `json:"schema_path,omitempty"`

	// QIDs are the quasi-identifier attributes; empty selects the
	// paper's default Adult set when the Adult schema is in use.
	QIDs []string `json:"qids,omitempty"`
	// Theta is the uniform matching threshold (default 0.05).
	Theta float64 `json:"theta,omitempty"`
	// K is the anonymity requirement for both holders (default 32).
	K int `json:"k,omitempty"`
	// AllowanceFraction is the SMC budget as a fraction of all record
	// pairs (default 0.015); Allowance, when set, is the absolute budget
	// and takes precedence.
	AllowanceFraction float64 `json:"allowance_fraction,omitempty"`
	Allowance         int64   `json:"allowance,omitempty"`
	// Heuristic, Strategy, Anonymizer and Blocking take the CLI names
	// (see cliutil); empty selects the paper defaults. Anonymizer "dp"
	// selects differentially private blocking and requires Epsilon.
	Heuristic  string `json:"heuristic,omitempty"`
	Strategy   string `json:"strategy,omitempty"`
	Anonymizer string `json:"anonymizer,omitempty"`
	// Epsilon, when positive, runs the job under differentially private
	// blocking: per-holder privacy budget of the noised bin releases
	// (composed spend is 2ε; see core.DPStats). Requires Anonymizer ""
	// or "dp". DPDelta is the truncation mass (0 = default 1e-6), DPSeed
	// the deterministic noise seed, DPLevel the VGH binning depth (0 =
	// default).
	Epsilon float64 `json:"epsilon,omitempty"`
	DPDelta float64 `json:"dp_delta,omitempty"`
	DPSeed  int64   `json:"dp_seed,omitempty"`
	DPLevel int     `json:"dp_level,omitempty"`
	// Blocking is deprecated and ignored: there is one blocking engine
	// (the hierarchy index). The field still decodes so older clients
	// and persisted specs keep working — "", "dense" and "indexed" have
	// always produced identical labels — and any other value is refused.
	Blocking string `json:"blocking,omitempty"`
	// Secure runs the real Paillier protocol in-process with KeyBits
	// keys; false uses the plaintext cost-model oracle.
	Secure  bool `json:"secure,omitempty"`
	KeyBits int  `json:"key_bits,omitempty"`
	// SMCWorkers is the SMC parallelism (0 = GOMAXPROCS).
	SMCWorkers int `json:"smc_workers,omitempty"`
	// Distributed stripes the SMC step across the daemon's registered
	// worker fleet (pprl-party -role worker) instead of running it
	// in-process. Combines with Secure: each worker then runs the real
	// Paillier protocol under its own fresh key. Rejected at submit time
	// when the daemon has no fleet configured.
	Distributed bool `json:"distributed,omitempty"`
	// Tier selects the triage tier between blocking and SMC: "off"
	// (default) or "bloom" (Dice over keyed CLK encodings; confident
	// bands labeled free, allowance reserved for the uncertain middle).
	Tier string `json:"tier,omitempty"`
	// TierHigh and TierLow are the tier's Dice thresholds; both zero
	// selects the defaults (0.95 / 0.60).
	TierHigh float64 `json:"tier_high,omitempty"`
	TierLow  float64 `json:"tier_low,omitempty"`
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

// Validate checks the parts of a spec that must be rejected at submit
// time (before the job ever reaches the queue).
func (s *JobSpec) Validate() error {
	if s.AlicePath == "" || s.BobPath == "" {
		return fmt.Errorf("alice_path and bob_path are required")
	}
	if s.Allowance < 0 || s.K < 0 {
		return fmt.Errorf("negative parameters are invalid")
	}
	if err := validKeyBits(s.KeyBits); err != nil {
		return err
	}
	if s.Theta != 0 {
		if err := cliutil.ThetaRange.Named("theta").Validate(s.Theta); err != nil {
			return err
		}
	}
	if s.AllowanceFraction != 0 {
		if err := cliutil.AllowanceFractionRange.Named("allowance_fraction").Validate(s.AllowanceFraction); err != nil {
			return err
		}
	}
	if _, err := cliutil.HeuristicByName(s.Heuristic); err != nil {
		return err
	}
	if _, err := cliutil.StrategyByName(s.Strategy); err != nil {
		return err
	}
	if cliutil.IsDPName(s.Anonymizer) {
		if s.Epsilon == 0 {
			return fmt.Errorf("anonymizer %q requires epsilon > 0", s.Anonymizer)
		}
	} else {
		if _, err := cliutil.AnonymizerByName(s.Anonymizer); err != nil {
			return err
		}
		if s.Anonymizer != "" && s.Epsilon != 0 {
			return fmt.Errorf("epsilon requires anonymizer \"dp\", got %q", s.Anonymizer)
		}
	}
	if s.Epsilon != 0 || s.DPDelta != 0 || s.DPSeed != 0 || s.DPLevel != 0 {
		if err := cliutil.EpsilonRange.Named("epsilon").Validate(s.Epsilon); err != nil {
			return err
		}
		if s.DPDelta != 0 {
			if err := cliutil.DeltaRange.Named("dp_delta").Validate(s.DPDelta); err != nil {
				return err
			}
		}
		if s.DPLevel < 0 {
			return fmt.Errorf("dp_level must be ≥ 0, got %d", s.DPLevel)
		}
	}
	switch strings.ToLower(s.Blocking) {
	case "", "dense", "indexed":
	default:
		return fmt.Errorf("unknown blocking mode %q (the field is deprecated; omit it)", s.Blocking)
	}
	if _, err := cliutil.TierModeByName(s.Tier); err != nil {
		return err
	}
	if err := cliutil.TierBand(s.TierLow, s.TierHigh); err != nil {
		return err
	}
	return nil
}

// validKeyBits refuses a key size paillier.GenerateKey would refuse only
// after the job was queued or the dataset registered; 0 is the default.
func validKeyBits(bits int) error {
	if bits != 0 && bits < paillier.MinKeyBits {
		return fmt.Errorf("key_bits must be at least %d (or 0 for the default 1024), got %d", paillier.MinKeyBits, bits)
	}
	return nil
}

// Config materializes the core pipeline configuration the spec
// describes. Validate must have accepted the spec.
func (s *JobSpec) Config(qids []string) (core.Config, error) {
	cfg := core.DefaultConfig(qids)
	if s.Theta > 0 {
		cfg.Theta = s.Theta
	}
	if s.K > 0 {
		cfg.AliceK, cfg.BobK = s.K, s.K
	}
	if s.AllowanceFraction > 0 {
		cfg.AllowanceFraction = s.AllowanceFraction
	}
	if s.Allowance > 0 {
		cfg.Allowance = s.Allowance
	}
	var err error
	if cfg.Heuristic, err = cliutil.HeuristicByName(s.Heuristic); err != nil {
		return cfg, err
	}
	if cfg.Strategy, err = cliutil.StrategyByName(s.Strategy); err != nil {
		return cfg, err
	}
	if s.Epsilon != 0 {
		// DP mode: leave the anonymizers nil so the core config installs
		// the deterministic binner with these parameters.
		cfg.Epsilon = s.Epsilon
		cfg.DPDelta = s.DPDelta
		cfg.DPSeed = s.DPSeed
		cfg.DPLevel = s.DPLevel
	} else {
		anon, err := cliutil.AnonymizerByName(s.Anonymizer)
		if err != nil {
			return cfg, err
		}
		cfg.AliceAnonymizer, cfg.BobAnonymizer = anon, anon
	}
	if s.Secure {
		keyBits := s.KeyBits
		if keyBits == 0 {
			keyBits = 1024
		}
		cfg.Comparator = core.SecureComparatorFactory(keyBits)
	}
	cfg.SMCWorkers = s.SMCWorkers
	if cfg.Tier, err = cliutil.TierModeByName(s.Tier); err != nil {
		return cfg, err
	}
	cfg.TierHigh, cfg.TierLow = s.TierHigh, s.TierLow
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
	// Phase is the pipeline stage: "anonymize-alice", "anonymize-bob",
	// "dp-noise" (DP jobs only), "blocking", "tier", or "smc".
	Phase string `json:"phase"`
	// Done and Total are the stage's position; for the "smc" phase they
	// are pairs purchased vs the resolved allowance.
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
	// PairsPurchased and AllowanceRemaining restate the smc position in
	// the paper's cost-model terms (zero in earlier phases).
	PairsPurchased     int64 `json:"pairs_purchased"`
	AllowanceRemaining int64 `json:"allowance_remaining"`
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
