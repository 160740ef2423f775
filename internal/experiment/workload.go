package experiment

import (
	"math/rand"

	"pprl/internal/adult"
	"pprl/internal/blocking"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/match"
)

// Options scales and seeds the experiment suite. Zero fields take the
// defaults below; the paper's full scale is Records = 30162 (every
// complete Adult record, yielding two 20,108-record relations).
type Options struct {
	// Records is the size of the synthetic Adult sample that is split
	// into the two overlapping relations (each gets 2/3 of it).
	Records int
	// Seed drives generation and the overlap split.
	Seed int64

	// K is the default anonymity requirement (paper: 32).
	K int
	// Theta is the default matching threshold (paper: 0.05).
	Theta float64
	// AllowanceFraction is the default SMC budget (paper: 0.015).
	AllowanceFraction float64
	// QIDs is the default quasi-identifier set (paper: first five).
	QIDs []string

	// Ks is the Figure 2/3/4 sweep (paper: 2..1024 doubling).
	Ks []int
	// Thetas is the Figure 5 sweep (paper: 0.01..0.10).
	Thetas []float64
	// QIDCounts is the Figure 6/7 sweep (paper: 3..8).
	QIDCounts []int
	// Allowances is the Figure 8 sweep, as fractions (paper: 0..0.03).
	Allowances []float64
	// Epsilons is the DP benchmark's per-holder budget sweep.
	Epsilons []float64
}

func (o Options) withDefaults() Options {
	if o.Records == 0 {
		o.Records = 1800
	}
	if o.Seed == 0 {
		o.Seed = 20080407 // ICDE 2008
	}
	if o.K == 0 {
		o.K = 32
	}
	if o.Theta == 0 {
		o.Theta = 0.05
	}
	if o.AllowanceFraction == 0 {
		o.AllowanceFraction = 0.015
	}
	if o.QIDs == nil {
		o.QIDs = adult.DefaultQIDs()
	}
	if o.Ks == nil {
		o.Ks = []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	}
	if o.Thetas == nil {
		o.Thetas = []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10}
	}
	if o.QIDCounts == nil {
		o.QIDCounts = []int{3, 4, 5, 6, 7, 8}
	}
	if o.Allowances == nil {
		o.Allowances = []float64{0, 0.005, 0.010, 0.015, 0.020, 0.025, 0.030}
	}
	if o.Epsilons == nil {
		o.Epsilons = []float64{0.25, 0.5, 1, 2, 4, 8}
	}
	return o
}

// Workload is the pair of overlapping relations every experiment links.
type Workload struct {
	Alice, Bob *dataset.Dataset
	Opts       Options
}

// NewWorkload generates the synthetic Adult sample and splits it into
// D1 = d1 ∪ d3 and D2 = d2 ∪ d3, the paper's construction.
func NewWorkload(opts Options) Workload {
	opts = opts.withDefaults()
	full := adult.Generate(opts.Records, opts.Seed)
	alice, bob := dataset.SplitOverlap(full, rand.New(rand.NewSource(opts.Seed+1)))
	return Workload{Alice: alice, Bob: bob, Opts: opts}
}

// capK clamps a sweep value to the relation sizes so scaled-down runs
// stay valid.
func (w Workload) capK(k int) int {
	n := w.Alice.Len()
	if w.Bob.Len() < n {
		n = w.Bob.Len()
	}
	if k > n {
		return n
	}
	return k
}

// baseConfig returns the default engine configuration for this workload.
func (w Workload) baseConfig() core.Config {
	cfg := core.DefaultConfig(w.Opts.QIDs)
	cfg.Theta = w.Opts.Theta
	cfg.AliceK = w.capK(w.Opts.K)
	cfg.BobK = w.capK(w.Opts.K)
	cfg.AllowanceFraction = w.Opts.AllowanceFraction
	return cfg
}

// prepared bundles the cached anonymize+block stages of a sweep point.
type prepared struct {
	block *blocking.Result
	truth []match.Pair
}

// prepare runs core.Prepare under cfg and computes ground truth for its
// rule. The result feeds core.LinkPrepared so heuristic/allowance sweeps
// reuse it.
func (w Workload) prepare(cfg core.Config) (*prepared, error) {
	block, rule, err := core.Prepare(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
	if err != nil {
		return nil, err
	}
	truth, err := match.TruePairs(w.Alice, w.Bob, block.R.QIDs, rule)
	if err != nil {
		return nil, err
	}
	return &prepared{block: block, truth: truth}, nil
}

// recall finishes a prepared run under cfg and returns recall against the
// prepared ground truth.
func (w Workload) recall(p *prepared, cfg core.Config) (float64, error) {
	res, err := core.LinkPrepared(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, p.block, cfg)
	if err != nil {
		return 0, err
	}
	return res.Evaluate(p.truth).Recall(), nil
}
