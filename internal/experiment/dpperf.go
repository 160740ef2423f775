package experiment

import (
	"fmt"
	"io"

	"pprl/internal/blocking"
	"pprl/internal/core"
	"pprl/internal/match"
)

// DPPerfPoint is one ε point of the differential-privacy benchmark: a
// full pipeline run under DP blocking at per-holder budget ε, scored
// against exact ground truth. The cost axis counts every allowance unit
// spent — record pairs (RecordSpent, `live_spent`) and pairs that touch a
// dummy (DummySpent) alike — so the efficiency figure is comparable to the
// k-anonymous arm, which has no dummy term.
type DPPerfPoint struct {
	Epsilon      float64 `json:"epsilon"`
	TotalEpsilon float64 `json:"total_epsilon"`
	TotalDelta   float64 `json:"total_delta"`

	Allowance   int64 `json:"allowance"`
	RecordSpent int64 `json:"live_spent"`
	DummySpent  int64 `json:"dummy_spent"`
	DummyPairs  int64 `json:"dummy_pairs"`
	AliceBins   int   `json:"alice_bins"`
	BobBins     int   `json:"bob_bins"`

	Recall        float64 `json:"recall"`
	Precision     float64 `json:"precision"`
	RecallPerUnit float64 `json:"recall_per_unit"`
}

// DPKPoint is one k point of the k-anonymous comparison arm: the
// existing generalization pipeline at the same allowance fraction.
type DPKPoint struct {
	K             int     `json:"k"`
	Allowance     int64   `json:"allowance"`
	Spent         int64   `json:"spent"`
	Recall        float64 `json:"recall"`
	Precision     float64 `json:"precision"`
	RecallPerUnit float64 `json:"recall_per_unit"`
}

// DPPerfReport is the machine-readable benchmark `pprl-bench -exp dp
// -json` writes to BENCH_dp.json: the ε-vs-recall-vs-cost frontier of
// differentially private blocking against the k-anonymous sweep on the
// Adult workload.
type DPPerfReport struct {
	Stamped
	Records           int     `json:"records"`
	Theta             float64 `json:"theta"`
	AllowanceFraction float64 `json:"allowance_fraction"`
	Delta             float64 `json:"delta"`
	Level             int     `json:"level"`
	Seed              int64   `json:"seed"`
	TruthPairs        int     `json:"truth_pairs"`

	EpsilonPoints []DPPerfPoint `json:"epsilon_points"`
	KPoints       []DPKPoint    `json:"k_points"`

	// BestEpsilon is the ε with the highest recall per allowance unit —
	// the knee the smoke gate reads.
	BestEpsilon       float64 `json:"best_epsilon"`
	BestEpsilonRecall float64 `json:"best_epsilon_recall"`
}

// Gate is DP blocking's contract as the arm sees it, and pprl-bench fails
// the arm on it: on every ε row precision is exactly 1, the purchases fit
// the allowance and the dummies bought fit the padding.
func (r *DPPerfReport) Gate() error {
	for _, pt := range r.EpsilonPoints {
		if pt.Precision != 1 || pt.RecordSpent+pt.DummySpent > pt.Allowance || pt.DummySpent > pt.DummyPairs {
			return fmt.Errorf("dp: at ε=%g precision is %v and %d + %d dummy pairs (of %d) were bought on allowance %d; want exactly 1, within the allowance and the padding",
				pt.Epsilon, pt.Precision, pt.RecordSpent, pt.DummySpent, pt.DummyPairs, pt.Allowance)
		}
	}
	return nil
}

// WriteJSON renders the report as indented JSON.
func (r *DPPerfReport) WriteJSON(w io.Writer) error { return writeIndented(w, r) }

// dpKSweep is the k-anonymous comparison arm; a short sweep keeps the
// default run fast while bracketing the paper's k=32 operating point.
var dpKSweep = []int{8, 32, 128}

// DPPerf benchmarks differentially private blocking across an ε sweep
// against the k-anonymous pipeline across a k sweep on the standard Adult
// workload, every row buying the k rows' allowance (the fraction of the
// real |A|·|B|; a DP run's own is of its padded pairs). Every arm pays for
// what it consumes: the DP arm's spend includes the dummy pairs of its
// walk, so recall per unit reflects the real price of the (ε,δ) guarantee.
func DPPerf(opts Options) (*DPPerfReport, *Table, error) {
	w := NewWorkload(opts)
	o := w.Opts

	schema := w.Alice.Schema()
	qids, err := schema.Resolve(o.QIDs)
	if err != nil {
		return nil, nil, fmt.Errorf("dpperf: %w", err)
	}
	rule, err := blocking.RuleFor(schema, qids, o.Theta)
	if err != nil {
		return nil, nil, fmt.Errorf("dpperf: %w", err)
	}
	truth, err := match.TruePairs(w.Alice, w.Bob, qids, rule)
	if err != nil {
		return nil, nil, fmt.Errorf("dpperf: %w", err)
	}

	rep := &DPPerfReport{
		Records:           o.Records,
		Theta:             o.Theta,
		AllowanceFraction: o.AllowanceFraction,
		Seed:              o.Seed,
		TruthPairs:        len(truth),
	}
	spend := func(n int64) int64 {
		if n < 1 {
			return 1
		}
		return n
	}

	for _, k := range dpKSweep {
		cfg := w.baseConfig()
		cfg.Strategy = core.MaximizePrecision
		cfg.AliceK = w.capK(k)
		cfg.BobK = w.capK(k)
		res, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("dpperf: k=%d: %w", k, err)
		}
		conf := res.Evaluate(truth)
		pt := DPKPoint{
			K:         w.capK(k),
			Allowance: res.Allowance,
			Spent:     res.Invocations,
			Recall:    conf.Recall(),
			Precision: conf.Precision(),
		}
		pt.RecallPerUnit = pt.Recall / float64(spend(pt.Spent))
		rep.KPoints = append(rep.KPoints, pt)
	}

	for _, eps := range o.Epsilons {
		cfg := w.baseConfig()
		cfg.Strategy = core.MaximizePrecision
		cfg.Epsilon = eps
		cfg.DPSeed = o.Seed
		cfg.Allowance = rep.KPoints[0].Allowance
		res, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("dpperf: ε=%v: %w", eps, err)
		}
		conf := res.Evaluate(truth)
		pt := DPPerfPoint{
			Epsilon:      eps,
			TotalEpsilon: res.DP.TotalEpsilon,
			TotalDelta:   res.DP.TotalDelta,
			Allowance:    res.Allowance,
			RecordSpent:  res.Invocations - res.DP.DummySpent,
			DummySpent:   res.DP.DummySpent,
			DummyPairs:   res.DP.DummyPairs,
			AliceBins:    res.DP.AliceBins,
			BobBins:      res.DP.BobBins,
			Recall:       conf.Recall(),
			Precision:    conf.Precision(),
		}
		pt.RecallPerUnit = pt.Recall / float64(spend(pt.RecordSpent+pt.DummySpent))
		if rep.Delta == 0 {
			rep.Delta = res.DP.Delta
			rep.Level = res.DP.Level
		}
		if pt.RecallPerUnit > 0 && (rep.BestEpsilon == 0 || pt.RecallPerUnit > bestUnit(rep)) {
			rep.BestEpsilon, rep.BestEpsilonRecall = eps, pt.Recall
		}
		rep.EpsilonPoints = append(rep.EpsilonPoints, pt)
	}

	t := &Table{
		ID: "dp",
		Title: fmt.Sprintf("differentially private blocking vs k-anonymous baseline (Adult %d records, θ=%.2f, allowance %.3f, δ=%g, level %d)",
			o.Records, o.Theta, o.AllowanceFraction, rep.Delta, rep.Level),
		Columns: []string{"mode", "allowance", "live spent", "dummy spent", "recall", "precision", "recall/1e6 units"},
	}
	for _, pt := range rep.EpsilonPoints {
		t.AddRow(
			fmt.Sprintf("ε=%g", pt.Epsilon),
			fmt.Sprintf("%d", pt.Allowance),
			fmt.Sprintf("%d", pt.RecordSpent),
			fmt.Sprintf("%d", pt.DummySpent),
			fmt.Sprintf("%.4f", pt.Recall),
			fmt.Sprintf("%.4f", pt.Precision),
			fmt.Sprintf("%.4f", 1e6*pt.RecallPerUnit),
		)
	}
	for _, pt := range rep.KPoints {
		t.AddRow(
			fmt.Sprintf("k=%d", pt.K),
			fmt.Sprintf("%d", pt.Allowance),
			fmt.Sprintf("%d", pt.Spent),
			"0",
			fmt.Sprintf("%.4f", pt.Recall),
			fmt.Sprintf("%.4f", pt.Precision),
			fmt.Sprintf("%.4f", 1e6*pt.RecallPerUnit),
		)
	}
	return rep, t, nil
}

// bestUnit returns the recall-per-unit of the current best ε point.
func bestUnit(rep *DPPerfReport) float64 {
	for _, pt := range rep.EpsilonPoints {
		if pt.Epsilon == rep.BestEpsilon {
			return pt.RecallPerUnit
		}
	}
	return 0
}
