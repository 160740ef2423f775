// Package core implements the paper's primary contribution: the hybrid
// private record linkage protocol that combines k-anonymization-based
// blocking with budgeted SMC resolution (Sections III–V).
//
// The pipeline: each data holder anonymizes its relation (with its own k
// and anonymization method — the paper explicitly allows them to differ);
// the blocking step labels equivalence-class pairs Match / NonMatch /
// Unknown with the slack decision rule; Unknown pairs are ordered by a
// selection heuristic and resolved by the SMC comparator until the SMC
// allowance is exhausted (the loop itself is internal/resolve, DESIGN.md
// §16); the residual-labeling strategy decides the rest.
// Under the default maximize-precision strategy every reported match is
// certain, so precision is always 100% and recall varies with the
// allowance — the paper's privacy/cost/accuracy trade-off.
package core

import (
	"context"
	"fmt"
	"runtime"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/bloom"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/dpblock"
	"pprl/internal/heuristic"
	"pprl/internal/journal"
	"pprl/internal/metrics"
	"pprl/internal/smc"
)

// Strategy selects how record pairs that remain Unknown after the SMC
// budget runs out are labeled (paper Section V-B).
type Strategy int

const (
	// MaximizePrecision labels residual pairs non-match; no false
	// positives are possible, recall may suffer. This is the paper's
	// choice ("Since privacy is our primary concern, we choose to follow
	// the first strategy").
	MaximizePrecision Strategy = iota
	// MaximizeRecall spends the budget on probably-mismatching pairs and
	// labels residual pairs match: full recall, possibly poor precision.
	MaximizeRecall
	// TrainClassifier selects SMC pairs at random and trains a
	// threshold classifier on the SMC outcomes (features are the
	// expected distances of the generalizations) to label residual
	// pairs: a compromise the paper argues cannot attain high precision
	// or recall.
	TrainClassifier
)

func (s Strategy) String() string {
	switch s {
	case MaximizePrecision:
		return "maximize-precision"
	case MaximizeRecall:
		return "maximize-recall"
	case TrainClassifier:
		return "train-classifier"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// TierMode selects the optional triage tier between blocking and the SMC
// budget (DESIGN.md §12): a cheap encoded comparator that discards the
// confidently-dissimilar Unknown pairs so the Paillier allowance is spent
// only on the pairs that could match.
type TierMode int

const (
	// TierOff (default) runs the paper's two-tier pipeline: every Unknown
	// pair competes for the SMC allowance.
	TierOff TierMode = iota
	// TierBloom triages Unknown pairs by Dice similarity over CLK Bloom
	// encodings (internal/bloom) before any allowance is spent: pairs
	// with similarity ≤ TierLow are labeled NonMatch, every other pair is
	// ordered for the SMC budget. The tier never labels a Match, so
	// precision stays structurally 1.0 under MaximizePrecision; a tier
	// label can only be a missed match, which is what TierLow prices
	// (Result.TierNonMatchedPairs bounds the loss).
	TierBloom
)

func (m TierMode) String() string {
	switch m {
	case TierOff:
		return "off"
	case TierBloom:
		return "bloom"
	default:
		return fmt.Sprintf("TierMode(%d)", int(m))
	}
}

// ComparatorFactory builds the SMC comparator over the holders' encoded
// records. workers is the resolved Config.SMCWorkers value; factories
// that cannot parallelize may ignore it. The default (nil) uses the
// plaintext oracle with invocation accounting — the paper's own cost
// model for large sweeps; use SecureComparatorFactory to run real
// Paillier circuits.
type ComparatorFactory func(alice, bob [][]int64, spec *smc.Spec, workers int) (smc.Comparator, error)

// PlainComparatorFactory is the simulation-mode factory (default). The
// oracle does no cryptographic work, so workers is ignored.
func PlainComparatorFactory(alice, bob [][]int64, spec *smc.Spec, workers int) (smc.Comparator, error) {
	return smc.NewPlainComparator(spec, alice, bob), nil
}

// SecureComparatorFactory returns a factory running the full three-party
// Paillier protocol in-process with keys of the given size (the paper
// uses 1024 bits): workers protocol lanes under one key, sharing Alice's
// noise table and Bob's randomizer pool.
func SecureComparatorFactory(keyBits int) ComparatorFactory {
	return func(alice, bob [][]int64, spec *smc.Spec, workers int) (smc.Comparator, error) {
		return smc.NewLocalSecureSharded(spec, alice, bob, keyBits, workers)
	}
}

// Config parameterizes a linkage run. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// QIDs are the quasi-identifier attribute names, resolved against
	// the shared schema. The matching rule compares exactly these.
	QIDs []string
	// Theta is the uniform matching threshold θ_i applied to every
	// attribute (paper default 0.05). Ignored when Thresholds is set.
	Theta float64
	// Thresholds optionally gives per-attribute thresholds.
	Thresholds []float64

	// AliceK and BobK are the holders' anonymity requirements; the
	// participants set them independently (paper default 32 for both).
	AliceK, BobK int
	// AliceAnonymizer and BobAnonymizer choose each holder's
	// anonymization method; nil defaults to the paper's max-entropy
	// method.
	AliceAnonymizer, BobAnonymizer anonymize.Anonymizer

	// Heuristic orders Unknown pairs for the SMC budget; nil defaults to
	// MinAvgFirst (the paper's most robust heuristic on over-perturbed
	// data).
	Heuristic heuristic.Heuristic
	// Strategy picks the residual labeling (default MaximizePrecision).
	Strategy Strategy

	// Allowance is the absolute SMC budget in pairs. When 0,
	// AllowanceFraction is used instead.
	Allowance int64
	// AllowanceFraction is the budget as a fraction of the walked pair space
	// (heuristic.Plan; paper default 0.015, i.e. 1.5%), padded under DP.
	AllowanceFraction float64

	// Tier selects the triage tier between blocking and SMC (default
	// TierOff). Like SMCWorkers it is excluded from the journal manifest:
	// tier labels are deterministic and free to recompute, so a journaled
	// run may resume with the tier switched on, off, or retuned — the
	// replayed purchased verdicts stay exact and always take precedence
	// over tier labels.
	Tier TierMode
	// TierLow is the tier's Dice threshold: an Unknown pair scoring
	// ≤ TierLow is labeled NonMatch, everything above competes for the SMC
	// allowance. Zero selects bloom.DefaultTierLow (0.90); otherwise it
	// must satisfy 0 ≤ TierLow < 1.
	TierLow float64

	// Epsilon, when positive, switches the run to differentially private
	// blocking (DESIGN.md §14): both holders bin their records on fixed
	// VGH ancestors via the deterministic dpblock binner and publish
	// Laplace-noised bin counts, so the exchanged view sizes are
	// (ε, δ)-DP instead of k-anonymous. The noise is pure padding — it
	// never hides a real bin member — but the run walks the padded
	// releases, so every dummy pair of a candidate bin is a comparison
	// bought with the SMC allowance, and smaller ε buys stronger privacy
	// at the price of recall. Epsilon is
	// the per-holder budget; the run's total spend (alice + bob, by
	// sequential composition across the two releases) is reported in
	// Result.DP. Zero (the default) keeps the paper's k-anonymization
	// pipeline. When set, AliceAnonymizer/BobAnonymizer must be nil or
	// dpblock binners, AliceK/BobK are ignored by the binner, and Tier
	// must be off (dpblock.ErrTierUnderDP).
	Epsilon float64
	// DPDelta is the truncation failure mass δ of the one-sided Laplace
	// mechanism; 0 selects dpblock.DefaultDelta.
	DPDelta float64
	// DPSeed derives both holders' noise and pad permutations, separated
	// by role (dpblock.HolderSeed) as a session holder's are. It is part of
	// the journal manifest: a resumed run must re-derive the same releases.
	DPSeed int64
	// DPLevel is the VGH depth records are binned at (0 selects
	// dpblock.DefaultLevel). Coarser levels (smaller DPLevel) mean fewer,
	// larger bins: fewer candidates missed at bin boundaries but more
	// pairs per candidate bin.
	DPLevel int

	// Comparator builds the SMC back end; nil = plaintext oracle.
	Comparator ComparatorFactory
	// SMCWorkers is the parallelism of the SMC step: the number of
	// protocol lanes the secure comparator shards comparisons across,
	// and the scaling factor for the engine's batch size. ≤ 0 (the
	// default) selects GOMAXPROCS.
	SMCWorkers int
	// Seed drives the random pair selection of TrainClassifier.
	Seed int64
	// Journal, when set, receives the run manifest and one record per
	// resolved SMC pair verdict as the comparator returns them, making
	// the run crash-resumable: a journal.Writer from journal.Open records
	// a fresh run, or, when its file holds an interrupted run of the same
	// manifest, replays that run's verdicts so the engine never re-spends
	// allowance on pairs already purchased. Nil disables journaling.
	Journal journal.Sink
	// Context, when set, is polled at SMC chunk boundaries. On
	// cancellation the engine drains the in-flight chunk (so sharded
	// comparator lanes finish their frames cleanly), syncs the journal,
	// and returns an error wrapping ErrInterrupted. Nil means the run
	// cannot be interrupted.
	Context context.Context
	// Progress, when set, receives stage events during Link, in order:
	// "anonymize-alice", "anonymize-bob", "dp-noise" (DP only),
	// "blocking" (rows done vs rows, then 1/1), "order" (walk ordered,
	// journal declared), "tier" (TierBloom only: both relations
	// CLK-encoded), "comparator" (built, keys generated) and "smc"
	// (comparisons done vs the allowance: before the walk, every 4,096,
	// at the end); LinkPrepared starts at "order". Result.Stages times
	// them. Called synchronously on the linking goroutine; keep it fast.
	Progress func(stage string, done, total int64)

	stages *metrics.Stages // the run's stage clock, fed by report
}

// DefaultConfig returns the paper's Section VI defaults for the given
// quasi-identifier set: k = 32 for both holders, θ_i = 0.05, SMC
// allowance 1.5%, max-entropy anonymization, minAvgFirst ordering,
// maximize-precision labeling.
func DefaultConfig(qids []string) Config {
	return Config{
		QIDs:              qids,
		Theta:             0.05,
		AliceK:            32,
		BobK:              32,
		AllowanceFraction: 0.015,
	}
}

// normalize fills defaults and validates, returning the resolved QID
// positions and the rule.
func (c *Config) normalize(schema *dataset.Schema) ([]int, *blocking.Rule, error) {
	if len(c.QIDs) == 0 {
		return nil, nil, fmt.Errorf("core: config has no quasi-identifiers")
	}
	qids, err := schema.Resolve(c.QIDs)
	if err != nil {
		return nil, nil, err
	}
	var rule *blocking.Rule
	if c.Thresholds != nil {
		if len(c.Thresholds) != len(qids) {
			return nil, nil, fmt.Errorf("core: %d thresholds for %d QIDs", len(c.Thresholds), len(qids))
		}
		rule, err = blocking.NewRule(distance.MetricsFor(schema, qids), c.Thresholds)
	} else {
		if c.Theta <= 0 {
			return nil, nil, fmt.Errorf("core: Theta must be positive (got %v)", c.Theta)
		}
		rule, err = blocking.RuleFor(schema, qids, c.Theta)
	}
	if err != nil {
		return nil, nil, err
	}
	if c.AliceK < 1 || c.BobK < 1 {
		return nil, nil, fmt.Errorf("core: anonymity requirements must be ≥ 1 (got %d, %d)", c.AliceK, c.BobK)
	}
	if err := heuristic.CheckAllowance(c.Allowance, c.AllowanceFraction); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	if c.Epsilon != 0 || c.DPDelta != 0 || c.DPSeed != 0 || c.DPLevel != 0 {
		if c.Epsilon == 0 {
			return nil, nil, fmt.Errorf("core: DP parameters set without Epsilon > 0")
		}
		if c.Tier != TierOff {
			return nil, nil, fmt.Errorf("core: %w", dpblock.ErrTierUnderDP)
		}
		binner, err := dpblock.New(c.dpParams("alice"))
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		// Store the resolved defaults back so digests, manifests and
		// reports see the effective δ and level, not the zero sentinels.
		c.DPDelta = binner.Params().Delta
		c.DPLevel = binner.Params().Level
		if c.AliceAnonymizer == nil {
			c.AliceAnonymizer = binner
		}
		if c.BobAnonymizer == nil {
			c.BobAnonymizer = binner
		}
		// Mixing DP blocking with a k-anonymizer is undefined: the
		// blocking step needs noised releases on both sides.
		if _, ok := c.AliceAnonymizer.(*dpblock.Binner); !ok {
			return nil, nil, fmt.Errorf("core: Epsilon set but AliceAnonymizer is %s, not the dp binner", c.AliceAnonymizer.Name())
		}
		if _, ok := c.BobAnonymizer.(*dpblock.Binner); !ok {
			return nil, nil, fmt.Errorf("core: Epsilon set but BobAnonymizer is %s, not the dp binner", c.BobAnonymizer.Name())
		}
	}
	if c.AliceAnonymizer == nil {
		c.AliceAnonymizer = anonymize.NewMaxEntropy()
	}
	if c.BobAnonymizer == nil {
		c.BobAnonymizer = anonymize.NewMaxEntropy()
	}
	if c.Heuristic == nil {
		c.Heuristic = heuristic.MinAvgFirst{}
	}
	if c.DPEnabled() {
		// Refuses a classifier that cannot hide padding, before anything runs.
		spec, err := smc.SpecFromRule(rule, 1)
		if err == nil {
			_, err = dpblock.DummyRow(schema, qids, spec, true)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
	}
	if c.Comparator == nil {
		c.Comparator = PlainComparatorFactory
	}
	if c.SMCWorkers <= 0 {
		c.SMCWorkers = runtime.GOMAXPROCS(0)
	}
	switch c.Tier {
	case TierOff:
	case TierBloom:
		if err := bloom.TierLow(&c.TierLow); err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
	default:
		return nil, nil, fmt.Errorf("core: unknown Tier mode %d", int(c.Tier))
	}
	return qids, rule, nil
}

// dpParams assembles the dpblock parameters for one holder ("alice" or
// "bob"), seeded as a session holder of that role would be.
func (c *Config) dpParams(role string) dpblock.Params {
	return dpblock.Params{
		Epsilon: c.Epsilon,
		Delta:   c.DPDelta,
		Seed:    dpblock.HolderSeed(c.DPSeed, role),
		Level:   c.DPLevel,
	}
}

// DPEnabled reports whether the run uses differentially private blocking.
func (c *Config) DPEnabled() bool { return c.Epsilon > 0 }
