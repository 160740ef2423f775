package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"pprl"
	"pprl/internal/blocking"
	"pprl/internal/cliutil"
	"pprl/internal/incremental"
	"pprl/internal/match"
	"pprl/internal/metrics"
)

// runDedup links one relation against itself through the incremental
// engine: unordered pairs i < j, self-pairs excluded, same slack rule
// and SMC cost model as the two-party pipeline. The -allowance fraction
// is taken of the n(n-1)/2 unordered pair space.
func runDedup(out io.Writer, opts options) error {
	if opts.bPath != "" {
		return fmt.Errorf("-dedup links -a against itself; -b is not allowed")
	}
	if opts.anonName != "" || opts.Epsilon != 0 || opts.kSet {
		return fmt.Errorf("-dedup uses fixed-level binning (-level); -k, -anon and -epsilon do not apply")
	}
	for _, f := range []struct {
		name string
		set  bool
	}{{"-dp-delta", opts.DPDelta != 0}, {"-dp-seed", opts.DPSeed != 0}, {"-dp-level", opts.DPLevel != 0}} {
		if f.set {
			return fmt.Errorf("%s applies only to -anon dp, not -dedup", f.name)
		}
	}
	if opts.level < 0 {
		return fmt.Errorf("-level must be ≥ 0, got %d", opts.level)
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	if err := opts.OneLane(cliutil.FlagNames); err != nil {
		return err
	}
	schema, qids, err := opts.LoadSchema(nil)
	if err != nil {
		return err
	}
	cfg, err := opts.Incremental(qids)
	if err != nil {
		return err
	}
	cfg.Level, cfg.Dedup = opts.level, true
	data, err := readCSV(schema, opts.aPath)
	if err != nil {
		return err
	}
	n := int64(data.Len())
	pairs := n * (n - 1) / 2
	cfg.Allowance = int64(opts.AllowanceFraction * float64(pairs))
	if cfg.Allowance == 0 && pairs > 0 {
		// The live engine reads a zero allowance as unlimited.
		return fmt.Errorf("-allowance %v buys no pair of the %d record pairs; -dedup needs a budget of at least one", opts.AllowanceFraction, pairs)
	}

	w, err := opts.OpenJournal()
	if err != nil {
		return err
	}
	if w != nil {
		defer w.Close()
		cfg.Journal, cfg.Recovered = w, w.Recovered()
	}

	eng, err := incremental.New(schema, cfg)
	if err != nil {
		return err
	}
	res, err := eng.Append(0, data.Records())
	if err != nil {
		return err
	}
	stats := eng.Stats()

	var conf *metrics.Confusion
	var truthPairs int
	if opts.eval {
		c, truth, err := dedupEvaluate(data, cfg.QIDs, cfg.Theta, res.Deltas)
		if err != nil {
			return err
		}
		conf, truthPairs = c, truth
	}

	if opts.jsonOut {
		doc := struct {
			Dedup      bool                `json:"dedup"`
			Records    int                 `json:"records"`
			Allowance  int64               `json:"allowance"`
			Stats      incremental.Stats   `json:"stats"`
			Evaluation *metrics.Confusion  `json:"evaluation,omitempty"`
			TruthPairs *int                `json:"truth_pairs,omitempty"`
			Matches    []incremental.Delta `json:"matches,omitempty"`
		}{Dedup: true, Records: data.Len(), Allowance: cfg.Allowance, Stats: stats}
		if conf != nil {
			doc.Evaluation = conf
			doc.TruthPairs = &truthPairs
		}
		if opts.showPairs {
			doc.Matches = res.Deltas
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	fmt.Fprintf(out, "dedup: records=%d bins=%d matched-pairs=%d allowance=%d used=%d purchased=%d replayed=%d\n",
		data.Len(), stats.Bins[0], stats.Deltas, cfg.Allowance, stats.Used, stats.Purchased, stats.Replayed)
	fmt.Fprintf(out, "labels: blocking=%d residual=%d purchased=%d tier-nonmatch=%d\n",
		stats.BlockingMatches, stats.ResidualMatches,
		int64(stats.Deltas)-stats.BlockingMatches-stats.ResidualMatches, stats.TierNonMatches)
	if conf != nil {
		fmt.Fprintf(out, "evaluation: %v (|truth|=%d)\n", *conf, truthPairs)
	}
	if opts.showPairs {
		w := bufio.NewWriter(out)
		defer w.Flush()
		for _, d := range res.Deltas {
			fmt.Fprintf(w, "%d\t%d\n", d.AliceID, d.BobID)
		}
	}
	return nil
}

// dedupEvaluate scores the emitted pairs against the exact decision rule
// over the unordered pair space — computable here because this command
// holds the (single) file: the truth is the relation's self-join cut to
// i < j.
func dedupEvaluate(data *pprl.Dataset, qidNames []string, theta float64, deltas []incremental.Delta) (*metrics.Confusion, int, error) {
	schema := data.Schema()
	qids, err := schema.Resolve(qidNames)
	if err != nil {
		return nil, 0, err
	}
	rule, err := blocking.RuleFor(schema, qids, theta)
	if err != nil {
		return nil, 0, err
	}
	self, err := match.TruePairs(data, data, qids, rule)
	if err != nil {
		return nil, 0, err
	}
	truth := make(map[match.Pair]bool, len(self))
	for _, p := range self {
		if p.I < p.J {
			truth[p] = true
		}
	}
	matched := make(map[match.Pair]bool, len(deltas))
	for _, d := range deltas {
		if d.I < d.J {
			matched[match.Pair{I: d.I, J: d.J}] = true
		}
	}
	var conf metrics.Confusion
	for p := range matched {
		if truth[p] {
			conf.TruePositives++
		} else {
			conf.FalsePositives++
		}
	}
	conf.FalseNegatives = int64(len(truth)) - conf.TruePositives
	return &conf, len(truth), nil
}
