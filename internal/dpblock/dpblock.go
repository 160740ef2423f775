// Package dpblock implements differentially private blocking beside the
// k-anonymous generalization methods: each holder deterministically bins
// its records on VGH ancestor nodes (categorical attributes) and interval
// buckets (continuous attributes) at a fixed depth, then publishes the
// bins with Laplace-noised, dummy-padded sizes so the released histogram
// is (ε, δ)-DP. The matcher intersects the two noised releases through
// the one blocking loop (index.Stream) — equal or
// overlapping bins become candidate (Unknown) pairs for the SMC tier (the
// bloom tier is refused, ErrTierUnderDP), everything else is NonMatch —
// and walks the padded member lists, dummies included, against the SMC
// allowance, which is where the privacy level shows up as linkage cost.
//
// Unlike the slack decision rule over k-anonymous views, bin
// intersection is not sound: a true match whose records straddle a bin
// boundary is lost. That miss rate is a deterministic property of the
// binning depth (the noise never moves a record between bins), measured
// by experiment.DPPerf and bounded in the testkit harness.
package dpblock

import (
	"fmt"
	"math"

	"pprl/internal/anonymize"
	"pprl/internal/dataset"
)

// MethodName is the anonymizer name DP-binned views are published under.
const MethodName = "dp"

// DefaultDelta is the truncation failure mass used when Params.Delta is
// zero: small enough that a padded release failing to cover the Laplace
// tail is a non-event at any realistic bin count.
const DefaultDelta = 1e-6

// DefaultLevel is the binning depth below each hierarchy root used when
// Params.Level is zero. Depth 2 keeps Adult-sized taxonomies coarse
// enough that θ-matching pairs rarely straddle a boundary while still
// pruning the cross product.
const DefaultLevel = 2

// Params configures a DP release.
type Params struct {
	// Epsilon is the per-release privacy budget; must be > 0.
	Epsilon float64
	// Delta is the truncation failure mass in (0, 0.5); 0 selects
	// DefaultDelta.
	Delta float64
	// Seed keys the deterministic noise draws. The two holders of a run
	// must use distinct seeds (every shape derives them with HolderSeed).
	Seed int64
	// Level is the binning depth below the root (0 selects
	// DefaultLevel). Deeper bins prune more pairs but miss more
	// boundary-straddling matches.
	Level int
}

// withDefaults fills the zero-value knobs.
func (p Params) withDefaults() Params {
	if p.Delta == 0 {
		p.Delta = DefaultDelta
	}
	if p.Level == 0 {
		p.Level = DefaultLevel
	}
	return p
}

// Validate rejects unusable release parameters.
func (p Params) Validate() error {
	if math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0) || p.Epsilon <= 0 {
		return fmt.Errorf("dpblock: epsilon must be a positive finite number, got %v", p.Epsilon)
	}
	if p.Delta < 0 || p.Delta >= 0.5 {
		return fmt.Errorf("dpblock: delta must be in (0, 0.5), got %v", p.Delta)
	}
	if p.Level < 0 {
		return fmt.Errorf("dpblock: level must be ≥ 0, got %d", p.Level)
	}
	return nil
}

// Binner is the DP blocking "anonymizer": a deterministic generalization
// of every record to its depth-Level bin. It satisfies
// anonymize.Anonymizer so the rest of the pipeline (view serialization,
// class machinery, experiments) treats DP mode as just another method,
// but the k argument is ignored — bins may hold a single record, and the
// privacy argument rests on the noised release (Publish), not on class
// sizes.
type Binner struct {
	p Params
}

// New validates the parameters and returns a binner.
func New(p Params) (*Binner, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Binner{p: p}, nil
}

// Params returns the release parameters the binner was built with
// (defaults filled).
func (b *Binner) Params() Params { return b.p }

// Name identifies the method in experiment output and view files.
func (b *Binner) Name() string { return MethodName }

// Anonymize bins every record at the configured depth. The result's K is
// 1 — DP mode makes no class-size promise — and carries no DP release
// info yet; Publish attaches the noised counts.
func (b *Binner) Anonymize(d *dataset.Dataset, qids []int, k int) (*anonymize.Result, error) {
	seqs, err := binSequences(d, qids, b.p.Level)
	if err != nil {
		return nil, err
	}
	return anonymize.BuildResult(MethodName, 1, qids, seqs, nil), nil
}

// Publish attaches the (ε, δ)-DP release to a binned view: one noised,
// non-negative padded count per class, drawn deterministically from
// (p.Seed, bin key). Publishing is what spends the budget — a view
// without DP info must never leave the holder in DP mode.
func Publish(res *anonymize.Result, p Params) error {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return err
	}
	counts := make([]int64, len(res.Classes))
	for i, c := range res.Classes {
		counts[i] = int64(c.Size()) + Noise(p.Seed, c.Sequence.Key(), p.Epsilon, p.Delta)
	}
	res.DP = &anonymize.DPInfo{
		Epsilon:      p.Epsilon,
		Delta:        p.Delta,
		Seed:         p.Seed,
		Level:        p.Level,
		NoisedCounts: counts,
	}
	return nil
}
