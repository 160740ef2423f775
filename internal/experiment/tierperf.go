package experiment

import (
	"fmt"
	"io"

	"pprl/internal/core"
	"pprl/internal/metrics"
)

// TierPerfPoint is one allowance point of the three-tier benchmark: the
// two-tier baseline (blocking + budgeted SMC) against the three-tier
// pipeline (blocking + Bloom triage + budgeted SMC) at the same
// allowance, over the same blocking result.
type TierPerfPoint struct {
	AllowanceFraction float64 `json:"allowance_fraction"`
	Allowance         int64   `json:"allowance"`

	// Spent counts live SMC comparisons (the cost axis); the tier's free
	// labels never appear here.
	BaselineSpent int64 `json:"baseline_spent"`
	TierSpent     int64 `json:"tier_spent"`

	BaselineRecall    float64 `json:"baseline_recall"`
	TierRecall        float64 `json:"tier_recall"`
	BaselinePrecision float64 `json:"baseline_precision"`
	TierPrecision     float64 `json:"tier_precision"`

	// TierNonMatch counts the Unknown pairs the tier discarded — the bound
	// on its recall cost — TierUncertain those it passed on to the allowance.
	TierNonMatch  int64 `json:"tier_nonmatched_pairs"`
	TierUncertain int64 `json:"tier_uncertain_pairs"`
}

// TierPerfReport is the machine-readable benchmark `pprl-bench -exp
// tier -json` writes to BENCH_tier.json: recall, spend and precision of the
// Bloom triage tier against the two-tier baseline across an allowance sweep
// on the Adult workload.
type TierPerfReport struct {
	Stamped
	Records      int     `json:"records"`
	K            int     `json:"k"`
	Theta        float64 `json:"theta"`
	TierLow      float64 `json:"tier_low"`
	TotalPairs   int64   `json:"total_pairs"`
	UnknownPairs int64   `json:"unknown_pairs"`
	TruthPairs   int     `json:"truth_pairs"`

	Points []TierPerfPoint `json:"points"`
}

// Stamped is the field every report starts with: where it was measured,
// which pprl-bench fills in when it writes the report.
type Stamped struct {
	Stamp *Stamp `json:"stamp,omitempty"`
}

// SetStamp records where the report was measured.
func (s *Stamped) SetStamp(st *Stamp) { s.Stamp = st }

// Stamp says where a report was measured.
type Stamp struct {
	Host       string `json:"host"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// Gate is the tier's contract as the arm sees it, and pprl-bench fails the
// arm on it: on every row precision is exactly 1 (the tier only discards)
// and recall is at least the baseline's at the same allowance.
func (r *TierPerfReport) Gate() error {
	for _, pt := range r.Points {
		if pt.TierPrecision != 1 || pt.TierRecall < pt.BaselineRecall {
			return fmt.Errorf("tier: at allowance %.4f precision is %v and recall %.4f against the baseline's %.4f; want exactly 1 and no less",
				pt.AllowanceFraction, pt.TierPrecision, pt.TierRecall, pt.BaselineRecall)
		}
	}
	return nil
}

// WriteJSON renders the report as indented JSON.
func (r *TierPerfReport) WriteJSON(w io.Writer) error { return writeIndented(w, r) }

// TierPerf benchmarks the three-tier pipeline against the two-tier
// baseline on the standard Adult workload. Both arms share one blocking
// result and one heuristic ordering; the only difference is the triage
// tier. The tier discards the confidently dissimilar pairs for free, so
// the same allowance reaches further down the heuristic order; what it
// may cost is recall (a discarded true match), never precision.
func TierPerf(opts Options) (*TierPerfReport, *Table, error) {
	w := NewWorkload(opts)
	o := w.Opts
	base := w.baseConfig()
	base.Strategy = core.MaximizePrecision

	prep, err := w.prepare(base)
	if err != nil {
		return nil, nil, fmt.Errorf("tierperf: %w", err)
	}
	run := func(tier core.TierMode, allowanceFrac float64) (*core.Result, metrics.Confusion, error) {
		cfg := base
		cfg.Tier = tier
		cfg.AllowanceFraction = allowanceFrac
		res, err := core.LinkPrepared(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, prep.block, cfg)
		if err != nil {
			return nil, metrics.Confusion{}, err
		}
		return res, res.Evaluate(prep.truth), nil
	}

	rep := &TierPerfReport{
		Records:    o.Records,
		K:          base.AliceK,
		Theta:      o.Theta,
		TruthPairs: len(prep.truth),
	}

	for _, frac := range o.Allowances {
		bRes, bConf, err := run(core.TierOff, frac)
		if err != nil {
			return nil, nil, fmt.Errorf("tierperf: baseline at %.4f: %w", frac, err)
		}
		tRes, tConf, err := run(core.TierBloom, frac)
		if err != nil {
			return nil, nil, fmt.Errorf("tierperf: tier at %.4f: %w", frac, err)
		}
		if rep.TotalPairs == 0 {
			rep.TotalPairs = bRes.Block.TotalPairs()
			rep.UnknownPairs = bRes.Block.UnknownPairs
			rep.TierLow = tRes.TierLow()
		}
		pt := TierPerfPoint{
			AllowanceFraction: frac,
			Allowance:         bRes.Allowance,
			BaselineSpent:     bRes.Invocations,
			TierSpent:         tRes.Invocations,
			BaselineRecall:    bConf.Recall(),
			TierRecall:        tConf.Recall(),
			BaselinePrecision: bConf.Precision(),
			TierPrecision:     tConf.Precision(),
			TierNonMatch:      tRes.TierNonMatchedPairs(),
			TierUncertain:     tRes.TierUncertainPairs,
		}
		rep.Points = append(rep.Points, pt)
	}

	t := &Table{
		ID: "tier",
		Title: fmt.Sprintf("three-tier triage vs two-tier baseline (Adult %d records, k=%d, θ=%.2f, dice ≤ %.2f is NonMatch, %d unknown pairs)",
			o.Records, rep.K, o.Theta, rep.TierLow, rep.UnknownPairs),
		Columns: []string{"allowance", "base spent", "tier spent", "base recall", "tier recall", "tier precision", "free NonMatch"},
	}
	for _, pt := range rep.Points {
		t.AddRow(
			fmt.Sprintf("%.4f", pt.AllowanceFraction),
			fmt.Sprintf("%d", pt.BaselineSpent),
			fmt.Sprintf("%d", pt.TierSpent),
			fmt.Sprintf("%.4f", pt.BaselineRecall),
			fmt.Sprintf("%.4f", pt.TierRecall),
			fmt.Sprintf("%.4f", pt.TierPrecision),
			fmt.Sprintf("%d", pt.TierNonMatch),
		)
	}
	return rep, t, nil
}
