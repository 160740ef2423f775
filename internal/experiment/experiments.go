package experiment

import (
	"fmt"

	"pprl/internal/adult"
	"pprl/internal/anonymize"
	"pprl/internal/core"
	"pprl/internal/heuristic"
)

// Fig2 reproduces Figure 2: the number of distinct generalization
// sequences produced by TDS, the paper's max-entropy method, and DataFly
// as the anonymity requirement k grows.
func Fig2(opts Options) (*Table, error) {
	w := NewWorkload(opts)
	qids, err := w.Alice.Schema().Resolve(w.Opts.QIDs)
	if err != nil {
		return nil, err
	}
	methods := []anonymize.Anonymizer{anonymize.NewTDS(), anonymize.NewMaxEntropy(), anonymize.NewDataFly()}
	t := &Table{
		ID:      "fig2",
		Title:   "Number of generalization sequences vs. anonymity requirement k",
		Columns: []string{"k", "TDS", "Entropy", "DataFly"},
	}
	for _, k := range w.Opts.Ks {
		k = w.capK(k)
		row := []string{num(k)}
		for _, m := range methods {
			res, err := m.Anonymize(w.Alice, qids, k)
			if err != nil {
				return nil, fmt.Errorf("fig2: %s k=%d: %w", m.Name(), k, err)
			}
			row = append(row, num(res.NumSequences()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig3 reproduces Figure 3: blocking efficiency (the fraction of record
// pairs permanently classified by the slack rule) vs. k.
func Fig3(opts Options) (*Table, error) {
	w := NewWorkload(opts)
	t := &Table{
		ID:      "fig3",
		Title:   "Blocking efficiency vs. anonymity requirement k",
		Columns: []string{"k", "blocking efficiency"},
	}
	for _, k := range w.Opts.Ks {
		cfg := w.baseConfig()
		cfg.AliceK = w.capK(k)
		cfg.BobK = w.capK(k)
		p, err := w.prepare(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig3: k=%d: %w", k, err)
		}
		t.AddRow(num(w.capK(k)), pct(p.block.Efficiency()))
	}
	return t, nil
}

// Fig4 reproduces Figure 4: recall vs. k for the three selection
// heuristics under the fixed default SMC allowance.
func Fig4(opts Options) (*Table, error) {
	w := NewWorkload(opts)
	return recallSweep(w, "fig4", "Recall vs. anonymity requirement k", "k",
		w.Opts.Ks, func(cfg *core.Config, k int) string {
			cfg.AliceK = w.capK(k)
			cfg.BobK = w.capK(k)
			return num(w.capK(k))
		})
}

// Fig5 reproduces Figure 5: recall vs. the matching threshold θ for the
// three heuristics. Anonymization does not depend on θ, so the sweep
// re-blocks the same views under each rule.
func Fig5(opts Options) (*Table, error) {
	w := NewWorkload(opts)
	return recallSweep(w, "fig5", "Recall vs. matching threshold θ", "θ",
		w.Opts.Thetas, func(cfg *core.Config, theta float64) string {
			cfg.Theta = theta
			return fmt.Sprintf("%.2f", theta)
		})
}

// Fig6and7 reproduces Figures 6 and 7 in one sweep: blocking efficiency
// and per-heuristic recall vs. the number of quasi-identifiers (the top-q
// attributes of the paper's QID ordering).
func Fig6and7(opts Options) (*Table, *Table, error) {
	w := NewWorkload(opts)
	f6 := &Table{
		ID:      "fig6",
		Title:   "Blocking efficiency vs. number of quasi-identifiers",
		Columns: []string{"QIDs", "blocking efficiency"},
	}
	f7 := &Table{
		ID:      "fig7",
		Title:   "Recall vs. number of quasi-identifiers",
		Columns: []string{"QIDs", "maxLast", "minFirst", "minAvgFirst"},
	}
	for _, q := range w.Opts.QIDCounts {
		cfg := w.baseConfig()
		cfg.QIDs = adult.TopQIDs(q)
		p, err := w.prepare(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("fig6/7: q=%d: %w", q, err)
		}
		f6.AddRow(num(q), pct(p.block.Efficiency()))
		row := []string{num(q)}
		for _, h := range heuristic.All() {
			hCfg := cfg
			hCfg.Heuristic = h
			rec, err := w.recall(p, hCfg)
			if err != nil {
				return nil, nil, fmt.Errorf("fig7: q=%d %s: %w", q, h.Name(), err)
			}
			row = append(row, pct(rec))
		}
		f7.AddRow(row...)
	}
	return f6, f7, nil
}

// Fig8 reproduces Figure 8: recall vs. the SMC allowance (as a percentage
// of all record pairs) for the three heuristics. Anonymization and
// blocking are shared across the whole sweep.
func Fig8(opts Options) (*Table, error) {
	w := NewWorkload(opts)
	cfg := w.baseConfig()
	p, err := w.prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	t := &Table{
		ID:      "fig8",
		Title:   "Recall vs. SMC allowance (% of all record pairs)",
		Columns: []string{"allowance", "maxLast", "minFirst", "minAvgFirst"},
	}
	for _, frac := range w.Opts.Allowances {
		row := []string{pct(frac)}
		for _, h := range heuristic.All() {
			hCfg := cfg
			hCfg.Heuristic = h
			hCfg.AllowanceFraction = frac
			// AllowanceFraction == 0 means "no budget" here, which the
			// engine reads as Allowance 0 pairs.
			rec, err := w.recall(p, hCfg)
			if err != nil {
				return nil, fmt.Errorf("fig8: a=%v %s: %w", frac, h.Name(), err)
			}
			row = append(row, pct(rec))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Strategies reproduces the Section V-B analysis: precision and recall of
// the three residual-labeling strategies under the default budget.
func Strategies(opts Options) (*Table, error) {
	w := NewWorkload(opts)
	cfg := w.baseConfig()
	p, err := w.prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("strategies: %w", err)
	}
	t := &Table{
		ID:      "strategies",
		Title:   "Residual-labeling strategies (Section V-B) at the default allowance",
		Columns: []string{"strategy", "precision", "recall", "reported matches"},
	}
	for _, s := range []core.Strategy{core.MaximizePrecision, core.MaximizeRecall, core.TrainClassifier} {
		sCfg := cfg
		sCfg.Strategy = s
		sCfg.Seed = w.Opts.Seed
		res, err := core.LinkPrepared(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, p.block, sCfg)
		if err != nil {
			return nil, fmt.Errorf("strategies: %v: %w", s, err)
		}
		conf := res.Evaluate(p.truth)
		t.AddRow(s.String(), pct(conf.Precision()), pct(conf.Recall()),
			fmt.Sprintf("%d", res.MatchedPairCount()))
	}
	return t, nil
}

// Anonymizers is an ablation extension: sequence counts, blocking
// efficiency and recall for every implemented anonymizer (including the
// Mondrian extension) at the default k.
func Anonymizers(opts Options) (*Table, error) {
	w := NewWorkload(opts)
	t := &Table{
		ID:      "anonymizers",
		Title:   "Anonymization method ablation at default k",
		Columns: []string{"method", "sequences(A)", "blocking efficiency", "recall"},
	}
	for _, m := range []anonymize.Anonymizer{
		anonymize.NewMaxEntropy(), anonymize.NewTDS(), anonymize.NewDataFly(), anonymize.NewMondrian(),
	} {
		cfg := w.baseConfig()
		cfg.AliceAnonymizer = m
		cfg.BobAnonymizer = m
		p, err := w.prepare(cfg)
		if err != nil {
			return nil, fmt.Errorf("anonymizers: %s: %w", m.Name(), err)
		}
		rec, err := w.recall(p, cfg)
		if err != nil {
			return nil, fmt.Errorf("anonymizers: %s: %w", m.Name(), err)
		}
		t.AddRow(m.Name(), num(p.block.R.NumSequences()), pct(p.block.Efficiency()), pct(rec))
	}
	return t, nil
}

// Diversity is an extension ablation: the accuracy cost of adding
// distinct l-diversity (of the income class) on top of k-anonymity, for
// l ∈ {1, 2} — the income class is binary, so 2 is the maximum
// achievable diversity. The sweep runs at k = 4, where small equivalence
// classes exist and the diversity constraint actually binds (at the
// default k = 32 every class already mixes both income values). Larger l
// forbids specializations, so sequences, blocking efficiency and recall
// can only drop.
func Diversity(opts Options) (*Table, error) {
	w := NewWorkload(opts)
	t := &Table{
		ID:      "diversity",
		Title:   "l-diversity extension: privacy vs. blocking accuracy at k=4",
		Columns: []string{"l", "sequences(A)", "blocking efficiency", "recall"},
	}
	for _, l := range []int{1, 2} {
		a := anonymize.NewLDiverseEntropy(l)
		cfg := w.baseConfig()
		cfg.AliceK = w.capK(4)
		cfg.BobK = w.capK(4)
		cfg.AliceAnonymizer = a
		cfg.BobAnonymizer = a
		p, err := w.prepare(cfg)
		if err != nil {
			return nil, fmt.Errorf("diversity: l=%d: %w", l, err)
		}
		rec, err := w.recall(p, cfg)
		if err != nil {
			return nil, fmt.Errorf("diversity: l=%d: %w", l, err)
		}
		t.AddRow(num(l), num(p.block.R.NumSequences()), pct(p.block.Efficiency()), pct(rec))
	}
	return t, nil
}

// recallSweep renders a three-heuristic recall table over a sweep of one
// parameter, reusing the prepared stage per sweep point.
func recallSweep[T any](w Workload, id, title, param string, values []T, apply func(*core.Config, T) string) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{param, "maxLast", "minFirst", "minAvgFirst"},
	}
	for _, v := range values {
		cfg := w.baseConfig()
		label := apply(&cfg, v)
		p, err := w.prepare(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %v: %w", id, v, err)
		}
		row := []string{label}
		for _, h := range heuristic.All() {
			hCfg := cfg
			hCfg.Heuristic = h
			rec, err := w.recall(p, hCfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %v %s: %w", id, v, h.Name(), err)
			}
			row = append(row, pct(rec))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// All runs the complete suite in paper order.
func All(opts Options) ([]*Table, error) {
	var out []*Table
	add := func(t *Table, err error) error {
		if err != nil {
			return err
		}
		out = append(out, t)
		return nil
	}
	if err := add(Fig2(opts)); err != nil {
		return nil, err
	}
	if err := add(Fig3(opts)); err != nil {
		return nil, err
	}
	if err := add(Fig4(opts)); err != nil {
		return nil, err
	}
	if err := add(Fig5(opts)); err != nil {
		return nil, err
	}
	f6, f7, err := Fig6and7(opts)
	if err != nil {
		return nil, err
	}
	out = append(out, f6, f7)
	if err := add(Fig8(opts)); err != nil {
		return nil, err
	}
	if err := add(Strategies(opts)); err != nil {
		return nil, err
	}
	if err := add(Anonymizers(opts)); err != nil {
		return nil, err
	}
	if err := add(Baselines(opts)); err != nil {
		return nil, err
	}
	if err := add(Diversity(opts)); err != nil {
		return nil, err
	}
	if err := add(Strings(opts)); err != nil {
		return nil, err
	}
	if err := add(Bloom(opts)); err != nil {
		return nil, err
	}
	return out, nil
}
