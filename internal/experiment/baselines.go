package experiment

import (
	"fmt"

	"pprl/internal/blocking"
	"pprl/internal/core"
	"pprl/internal/metrics"
)

// Baselines reproduces the paper's headline comparison (abstract and
// Section I): the hybrid method against the two families it combines.
//
//   - Pure SMC: every record pair is compared with the secure circuit —
//     perfect accuracy, |R|×|S| invocations.
//   - Pure sanitization: matching is decided on the anonymized views
//     alone, with zero cryptographic cost. Undecidable pairs must be
//     guessed one way or the other: the pessimistic matcher labels them
//     non-match (losing recall), the optimistic matcher labels every
//     still-possible pair match (losing precision). Both rows appear —
//     the accuracy/privacy trade-off the paper's introduction attributes
//     to sanitization techniques.
//   - Hybrid (this paper): blocking plus a budgeted SMC step — 100%
//     precision at a small fraction of pure SMC's invocations.
func Baselines(opts Options) (*Table, error) {
	w := NewWorkload(opts)
	cfg := w.baseConfig()
	p, err := w.prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	total := p.block.TotalPairs()

	t := &Table{
		ID:      "baselines",
		Title:   "Hybrid vs. pure-SMC vs. pure-sanitization (paper abstract claim)",
		Columns: []string{"method", "SMC invocations", "precision", "recall"},
	}

	// Pure SMC: exact by construction.
	t.AddRow("pure SMC", fmt.Sprintf("%d", total), pct(1), pct(1))

	// Pure sanitization: decide everything from the anonymized views.
	pess := sanitizationOnly(p, false)
	t.AddRow("pure sanitization (pessimistic)", "0", pct(pess.Precision()), pct(pess.Recall()))
	opt := sanitizationOnly(p, true)
	t.AddRow("pure sanitization (optimistic)", "0", pct(opt.Precision()), pct(opt.Recall()))

	// Hybrid at the default allowance.
	res, err := core.LinkPrepared(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, p.block, cfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: hybrid: %w", err)
	}
	conf := res.Evaluate(p.truth)
	t.AddRow(fmt.Sprintf("hybrid (allowance %.1f%%)", 100*cfg.AllowanceFraction),
		fmt.Sprintf("%d", res.Invocations), pct(conf.Precision()), pct(conf.Recall()))

	// Hybrid with enough allowance for full recall.
	fullCfg := cfg
	fullCfg.AllowanceFraction = 0
	fullCfg.Allowance = p.block.UnknownPairs
	full, err := core.LinkPrepared(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, p.block, fullCfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: hybrid full: %w", err)
	}
	fullConf := full.Evaluate(p.truth)
	t.AddRow("hybrid (full recall)",
		fmt.Sprintf("%d", full.Invocations), pct(fullConf.Precision()), pct(fullConf.Recall()))
	return t, nil
}

// sanitizationOnly evaluates the anonymization-only matcher. Certain
// labels follow the slack rule; Unknown pairs are labeled match when
// optimistic, non-match when pessimistic.
func sanitizationOnly(p *prepared, optimistic bool) metrics.Confusion {
	block := p.block
	reported := block.MatchedPairs
	if optimistic {
		reported += block.UnknownPairs
	}
	var tp int64
	for _, pr := range p.truth {
		switch block.Label(block.R.ClassOf[pr.I], block.S.ClassOf[pr.J]) {
		case blocking.Match:
			tp++
		case blocking.Unknown:
			if optimistic {
				tp++
			}
		}
	}
	return metrics.Confusion{
		TruePositives:  tp,
		FalsePositives: reported - tp,
		FalseNegatives: int64(len(p.truth)) - tp,
	}
}
