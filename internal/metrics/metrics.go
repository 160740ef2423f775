// Package metrics provides the evaluation measures of the paper's Section
// VI: precision, recall (the paper's accuracy proxy, since precision is
// structurally 100%), blocking efficiency, and the cost model that
// converts SMC invocation counts to wall-clock estimates using a measured
// per-invocation cost. It also holds what a run's record measures — the
// stage clock (Stages) and the latency histogram (Histogram) — and the
// Prometheus text writer (Exposition) a status surface renders records
// with at scrape time: there is no registry of hand-kept counters.
package metrics

import (
	"fmt"
	"time"
)

// Confusion summarizes a linkage outcome against ground truth.
type Confusion struct {
	// TruePositives are truly matching pairs the method matched.
	TruePositives int64 `json:"true_positives"`
	// FalsePositives are non-matching pairs the method matched.
	FalsePositives int64 `json:"false_positives"`
	// FalseNegatives are truly matching pairs the method missed.
	FalseNegatives int64 `json:"false_negatives"`
}

// Precision returns TP / (TP + FP). The 0/0 case — no pair was labeled
// a match — returns 1 by convention: an empty answer contains no wrong
// answers, and the paper's structural-precision claim must hold even
// for a run whose SMC budget labeled nothing.
func (c Confusion) Precision() float64 {
	denom := c.TruePositives + c.FalsePositives
	if denom == 0 {
		return 1
	}
	return float64(c.TruePositives) / float64(denom)
}

// Recall returns TP / (TP + FN). The 0/0 case — the ground truth holds
// no matching pairs, e.g. disjoint relations — returns 1 by convention:
// everything there was to find was found. This keeps recall sweeps
// well-defined on worlds with empty overlap.
func (c Confusion) Recall() float64 {
	denom := c.TruePositives + c.FalseNegatives
	if denom == 0 {
		return 1
	}
	return float64(c.TruePositives) / float64(denom)
}

// F1 returns the harmonic mean of precision and recall. When both are
// zero (every labeled pair wrong and every true match missed) the
// harmonic mean's 0/0 is taken as 0, the worst score — unlike the
// optimistic 0/0 conventions above, there is nothing empty to excuse.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func (c Confusion) String() string {
	return fmt.Sprintf("precision=%.4f recall=%.4f f1=%.4f (tp=%d fp=%d fn=%d)",
		c.Precision(), c.Recall(), c.F1(), c.TruePositives, c.FalsePositives, c.FalseNegatives)
}

// CostModel converts SMC invocation counts to estimated time, following
// the paper's methodology: "we restricted our cost model to the number of
// SMC protocol invocations. If needed, translating this percentage into
// CPU time or network bandwidth is an easy task."
type CostModel struct {
	// PerInvocation is the measured cost of one secure record comparison
	// (the paper reports 0.43 s per continuous attribute at 1024-bit
	// keys on 2008 hardware; run the package benchmarks for this
	// machine's figure).
	PerInvocation time.Duration
	// BytesPerInvocation is the measured traffic per comparison.
	BytesPerInvocation int64
}

// Time estimates wall-clock cost of n invocations.
func (m CostModel) Time(n int64) time.Duration {
	return time.Duration(n) * m.PerInvocation
}

// Bytes estimates traffic of n invocations.
func (m CostModel) Bytes(n int64) int64 { return n * m.BytesPerInvocation }

// ResumeStats accounts for a run resumed from a durable journal: how
// much of the SMC step was stitched in from a previous process instead
// of being bought again. A fresh (unjournaled or uninterrupted) run is
// the zero value. The two counters are reported separately because they
// answer different questions — ResumedPairs is a verdict count (the
// oracle harness checks the stitched labeling with it), ReplayedAllowance
// is the budget the replay consumed (benchmarks check that a resumed run
// spends exactly Allowance − ReplayedAllowance on live comparisons) —
// even though the current uniform cost model makes them numerically
// equal.
type ResumeStats struct {
	// ResumedPairs is the number of pair verdicts replayed from the
	// journal rather than resolved by the comparator.
	ResumedPairs int64 `json:"resumed_pairs"`
	// ReplayedAllowance is the SMC allowance consumed by the replayed
	// prefix; the live run spends only the remainder.
	ReplayedAllowance int64 `json:"replayed_allowance"`
}

// Resumed reports whether any journaled state was stitched in.
func (s ResumeStats) Resumed() bool { return s.ResumedPairs > 0 }

func (s ResumeStats) String() string {
	return fmt.Sprintf("resumed=%d replayed-allowance=%d", s.ResumedPairs, s.ReplayedAllowance)
}
