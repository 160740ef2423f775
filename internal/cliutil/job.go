package cliutil

import (
	"fmt"
	"io"
	"os"

	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/match"
	"pprl/internal/metrics"
)

// Job is the frozen two-relation run as pprl-link and POST /v1/jobs take
// it: the two holders' relations, the parameter block, and what a frozen
// run adds to the block. service.JobSpec embeds it, so the keys below are
// the request body's and the stored spec's own. Each door applies its own
// meaning of an unset k or fraction before Validate: here zero k is no k,
// and a zero fraction buys nothing.
type Job struct {
	// AlicePath and BobPath reference the two holders' CSV relations.
	AlicePath string `json:"alice_path"`
	BobPath   string `json:"bob_path"`

	Params

	// K is the anonymity requirement of both holders.
	K int `json:"k,omitempty"`
	// AllowanceFraction is the SMC budget as a share of the walked pairs;
	// the block's absolute Allowance, when set, takes precedence.
	AllowanceFraction float64 `json:"allowance_fraction,omitempty"`
	// Anonymizer takes AnonymizerByName's names, or "dp" (which needs ε);
	// empty selects the paper's max-entropy method.
	Anonymizer string `json:"anonymizer,omitempty"`
	// Seed drives the TrainClassifier strategy's random selection.
	Seed int64 `json:"seed,omitempty"`
	// Evaluate scores the result against exact ground truth, which the run
	// can compute because it holds both relations.
	Evaluate bool `json:"evaluate,omitempty"`
}

// JobResult is the document a frozen run returns (GET
// /v1/jobs/{id}/result, pprl-link -json): the stable Result summary, the
// matched record-index pairs (the querying party's output) and, when the
// job asks, the ground-truth evaluation.
type JobResult struct {
	Result  core.ResultJSON `json:"result"`
	Matches [][2]int        `json:"matches"`
	// Evaluation is present when the job requested it.
	Evaluation *metrics.Confusion `json:"evaluation,omitempty"`
	// TruthPairs is the ground-truth match count behind Evaluation.
	TruthPairs int `json:"truth_pairs,omitempty"`
}

// Linked is a finished frozen run: the relations it read, the engine's
// result and the document made of them.
type Linked struct {
	Alice, Bob *dataset.Dataset
	Result     *core.Result
	Doc        *JobResult
}

// ValidateK refuses an anonymity requirement below 1, on every surface
// whose engine anonymizes to k (all but a session's dp holder).
func ValidateK(n Names, k int) error {
	if k < 1 {
		return fmt.Errorf("%s must be ≥ 1, got %d", n("k"), k)
	}
	return nil
}

// Validate refuses a job no run could use, before any file, journal or
// connection is opened.
func (j *Job) Validate(n Names) error {
	if j.AlicePath == "" || j.BobPath == "" {
		return fmt.Errorf("%s and %s are required", n("alice_path"), n("bob_path"))
	}
	if err := j.Params.Validate(n); err != nil {
		return err
	}
	if err := ValidateK(n, j.K); err != nil {
		return err
	}
	if err := AllowanceFractionRange.Named(n("allowance_fraction")).Validate(j.AllowanceFraction); err != nil {
		return err
	}
	return j.ValidateAnonymizer(n, n("anonymizer"), j.Anonymizer)
}

// Config materializes the job for core.Link. The run's plumbing (journal,
// context, progress, a fleet comparator, the DP binning depth) is the
// door's.
func (j *Job) Config(qids []string) (core.Config, error) {
	cfg, err := j.Core(qids)
	if err != nil {
		return cfg, err
	}
	cfg.AliceK, cfg.BobK = j.K, j.K
	cfg.AllowanceFraction = j.AllowanceFraction
	cfg.Seed = j.Seed
	if !IsDPName(j.Anonymizer) {
		// Under dp the anonymizers stay nil: the config installs the
		// deterministic binner from the block's ε.
		anon, err := AnonymizerByName(j.Anonymizer)
		if err != nil {
			return cfg, err
		}
		cfg.AliceAnonymizer, cfg.BobAnonymizer = anon, anon
	}
	return cfg, nil
}

// Run is the frozen run. It loads the schema and both relations — each
// reference through resolve, when set — materializes Config, lets setup
// add the door's plumbing (what setup returns is closed once the link is
// done), links, and assembles the result document, evaluated when the job
// asks. Validate must have accepted the job.
func (j *Job) Run(resolve func(ref string) (string, error), setup func(*core.Config) (io.Closer, error)) (*Linked, error) {
	schema, qids, err := j.LoadSchema(resolve)
	if err != nil {
		return nil, err
	}
	read := func(path string) (*dataset.Dataset, error) {
		if resolve != nil {
			var err error
			if path, err = resolve(path); err != nil {
				return nil, err
			}
		}
		return ReadRelation(schema, path)
	}
	l := new(Linked)
	if l.Alice, err = read(j.AlicePath); err != nil {
		return nil, fmt.Errorf("reading alice: %w", err)
	}
	if l.Bob, err = read(j.BobPath); err != nil {
		return nil, fmt.Errorf("reading bob: %w", err)
	}
	cfg, err := j.Config(qids)
	if err != nil {
		return nil, err
	}
	c, err := setup(&cfg)
	if err != nil {
		return nil, err
	}
	if c != nil {
		defer c.Close()
	}
	if l.Result, err = core.Link(core.Holder{Data: l.Alice}, core.Holder{Data: l.Bob}, cfg); err != nil {
		return nil, err
	}
	l.Doc = &JobResult{Result: l.Result.Summarize(), Matches: l.Result.Matches()}
	if j.Evaluate {
		truth, err := match.TruePairs(l.Alice, l.Bob, l.Result.QIDs(), l.Result.Rule())
		if err != nil {
			return nil, fmt.Errorf("computing ground truth: %w", err)
		}
		conf := l.Result.Evaluate(truth)
		l.Doc.Evaluation, l.Doc.TruthPairs = &conf, len(truth)
	}
	return l, nil
}

// ReadRelation reads the CSV relation at path against schema.
func ReadRelation(schema *dataset.Schema, path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(schema, f)
}
