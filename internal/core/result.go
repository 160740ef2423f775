package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"pprl/internal/blocking"
	"pprl/internal/dpblock"
	"pprl/internal/match"
	"pprl/internal/metrics"
	"pprl/internal/resolve"
)

// DPStats is the privacy and padding accounting of a differentially
// private blocking run (Config.Epsilon > 0); nil otherwise. Epsilon and
// delta compose sequentially across the two holders' releases: the run's
// total privacy spend against any one individual is (TotalEpsilon,
// TotalDelta) in the worst case of a record present on both sides.
type DPStats struct {
	// AliceEpsilon and BobEpsilon are the per-release budgets.
	AliceEpsilon float64 `json:"alice_epsilon"`
	BobEpsilon   float64 `json:"bob_epsilon"`
	// TotalEpsilon is the sequential composition of both releases.
	TotalEpsilon float64 `json:"total_epsilon"`
	// Delta is each release's truncation failure mass; TotalDelta the
	// composed mass.
	Delta      float64 `json:"delta"`
	TotalDelta float64 `json:"total_delta"`
	// Level is the VGH depth the holders binned at.
	Level int `json:"level"`
	// AliceBins and BobBins count the published bins.
	AliceBins int `json:"alice_bins"`
	BobBins   int `json:"bob_bins"`
	// AliceDummies and BobDummies are the total padding records each
	// release added across all bins.
	AliceDummies int64 `json:"alice_dummies"`
	BobDummies   int64 `json:"bob_dummies"`
	// DummyPairs is the padding cost over candidate bin pairs: the
	// comparisons the walk over the padded bins spends on at least one
	// dummy record.
	DummyPairs int64 `json:"dummy_pairs"`
	// DummySpent is how many purchased pairs, live or replayed, touched a
	// dummy: part of Invocations + Resume.ReplayedAllowance, not more.
	DummySpent int64 `json:"dummy_spent"`
}

// Result is the complete labeling of the |R|×|S| pair space produced by a
// linkage run, plus the cost accounting needed to reproduce the paper's
// measurements.
type Result struct {
	// Block is the blocking step's outcome over the anonymized views.
	Block *blocking.Result
	// Allowance is the SMC budget that applied, in walked (DP: handle) pairs.
	Allowance int64
	// Invocations is the number of SMC comparisons actually performed.
	Invocations int64
	// SMCBytes is the protocol traffic of the SMC step; zero when the
	// plaintext oracle resolved the pairs.
	SMCBytes int64
	// SMCWorkers is the resolved parallelism of the SMC step: how many
	// protocol lanes the comparator sharded comparisons across.
	SMCWorkers int
	// Resume accounts for verdicts stitched in from a durable journal
	// when the run continued an interrupted one; zero for fresh runs.
	// Invocations counts only live comparisons, so a resumed run reports
	// Invocations + Resume.ReplayedAllowance ≤ Allowance.
	Resume metrics.ResumeStats
	// TierUncertainPairs counts the Unknown pairs the triage tier could
	// not confidently label — the band the SMC budget is spent on. Zero
	// when the tier is off.
	TierUncertainPairs int64
	// DP is the privacy and padding accounting of a DP-blocking run;
	// nil when Config.Epsilon was unset.
	DP *DPStats
	// Stages is the wall-clock time of each stage that ran, in order
	// (the Config.Progress events): the non-cryptographic costs the paper
	// measures in Section VI, the comparator's setup and the smc walk.
	Stages metrics.Times
	// Latency is the duration of each comparator call of the SMC walk.
	Latency metrics.Histogram

	cfg  Config
	rule *blocking.Rule
	qids []int

	// purchased holds the SMC verdicts — exact, journaled or live — and
	// tiered the triage tier's heuristic labels (empty when the tier is
	// off). A pair is never in both: purchased verdicts are exact and the
	// walk does not offer them to the tier.
	purchased, tiered *labelStore
	// residualMatch is true under MaximizeRecall: unresolved Unknown
	// pairs default to match.
	residualMatch bool
	// groupVerdicts, under TrainClassifier, labels whole Unknown group
	// pairs via the trained classifier.
	groupVerdicts map[[2]int]bool
	// pads are a DP run's padded releases, Alice's then Bob's.
	pads [2]dpblock.Padded
}

// Padded returns a DP run's two padded releases — the views its walk ran
// over, with the maps from their handles back to records; zero without DP.
func (r *Result) Padded() (alice, bob dpblock.Padded) { return r.pads[0], r.pads[1] }

// fileHandles files a DP event through the pad maps: a pair that touches a
// dummy labels nothing and adds to DummySpent (the tier is refused under
// DP, so every event is a purchase, live or replayed).
func (r *Result) fileHandles(store *labelStore, ev resolve.Event) {
	i := r.pads[0].Map.RecordOf[ev.I]
	for x, h := range ev.Js {
		j := r.pads[1].Map.RecordOf[h]
		if i < 0 || j < 0 {
			r.DP.DummySpent++
			continue
		}
		store.setSpan(i, []int{j}, ev.Verdicts[x:x+1])
	}
}

// QIDs returns the resolved quasi-identifier positions.
func (r *Result) QIDs() []int { return r.qids }

// Strategy returns the residual-labeling strategy that produced this
// result; external verifiers use it to decide which invariants apply
// (e.g. precision is structurally 1.0 only under MaximizePrecision).
func (r *Result) Strategy() Strategy { return r.cfg.Strategy }

// Rule returns the matching rule in effect.
func (r *Result) Rule() *blocking.Rule { return r.rule }

// PairMatched returns the final label of record pair (i, j): i indexes
// Alice's relation, j Bob's. Precedence mirrors the labels' certainty:
// blocking (certain) → SMC verdicts (exact, purchased) → tier labels
// (heuristic, NonMatch only) → the residual strategy.
func (r *Result) PairMatched(i, j int) bool {
	ri := r.Block.R.ClassOf[i]
	si := r.Block.S.ClassOf[j]
	switch r.Block.Label(ri, si) {
	case blocking.Match:
		return true
	case blocking.NonMatch:
		return false
	}
	if v, ok := r.purchased.get(i, j); ok {
		return v
	}
	if r.TierLabeled(i, j) {
		return false
	}
	if r.groupVerdicts != nil {
		return r.groupVerdicts[[2]int{ri, si}]
	}
	return r.residualMatch
}

// Matches lists every pair PairMatched reports as matching, in row-major
// (i, j) order, by walking the labeled class pairs instead of the pair
// space: a blocked-Match pair emits A × B, an Unknown one the set bits of
// its labels under PairMatched's precedence, the residual filling the
// unlabeled rest.
func (r *Result) Matches() [][2]int {
	var out [][2]int
	r.Block.EachLabeled(func(ri, si int, l blocking.Label) {
		a, b := r.Block.R.Classes[ri].Members, r.Block.S.Classes[si].Members
		n := len(a) * len(b)
		p, t := r.purchased.group(ri, si), r.tiered.group(ri, si)
		residual := r.residualMatch
		if r.groupVerdicts != nil {
			residual = r.groupVerdicts[[2]int{ri, si}]
		}
		for base := 0; base < n; base += 64 {
			var pk, pm, tk uint64
			if p != nil {
				pk, pm = p.known[base/64], p.matched[base/64]
			}
			if t != nil {
				tk = t.known[base/64]
			}
			m := pm
			if residual {
				m |= ^(pk | tk)
			}
			if l == blocking.Match {
				m = ^uint64(0)
			}
			for ; m != 0; m &= m - 1 {
				if bit := base + bits.TrailingZeros64(m); bit < n {
					out = append(out, [2]int{a[bit/len(b)], b[bit%len(b)]})
				}
			}
		}
	})
	slices.SortFunc(out, func(x, y [2]int) int { return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1])) })
	return out
}

// TierLow returns the Dice threshold in effect; 0 when the tier is off.
func (r *Result) TierLow() float64 { return r.cfg.TierLow }

// TierLabeled reports whether the tier labeled pair (i, j) — NonMatch, the
// only label it has. Pairs resolved by blocking or SMC are never
// tier-labeled.
func (r *Result) TierLabeled(i, j int) bool {
	_, ok := r.tiered.get(i, j)
	return ok
}

// SMCLabel reports the purchased (exact) SMC verdict for pair (i, j),
// and whether the SMC step resolved it at all.
func (r *Result) SMCLabel(i, j int) (matched, ok bool) { return r.purchased.get(i, j) }

// TierNonMatchedPairs returns how many Unknown pairs the tier labeled
// NonMatch: the bound on what the tier can have cost in recall.
func (r *Result) TierNonMatchedPairs() int64 { return r.tiered.n }

// MatchedPairCount returns |reported matches| exactly, without
// enumerating the pair space.
func (r *Result) MatchedPairCount() int64 {
	total := r.Block.MatchedPairs + r.purchased.matched
	switch {
	case r.groupVerdicts != nil:
		for key, matched := range r.groupVerdicts {
			if !matched {
				continue
			}
			gpPairs := int64(r.Block.R.Classes[key[0]].Size()) * int64(r.Block.S.Classes[key[1]].Size())
			bought, _ := r.purchased.group(key[0], key[1]).counts()
			free, _ := r.tiered.group(key[0], key[1]).counts()
			total += gpPairs - int64(bought+free)
		}
	case r.residualMatch:
		total += r.Block.UnknownPairs - r.purchased.n - r.tiered.n
	}
	return total
}

// SMCResolvedPairs returns how many pairs the SMC step labeled.
func (r *Result) SMCResolvedPairs() int64 { return r.purchased.n }

// SMCRate returns the SMC step's throughput in comparisons per second,
// or 0 when no comparisons ran.
func (r *Result) SMCRate() float64 {
	smc := r.Stages.Of("smc")
	if r.Invocations == 0 || smc <= 0 {
		return 0
	}
	return float64(r.Invocations) / smc.Seconds()
}

// BlockingEfficiency is the paper's primary blocking measure.
func (r *Result) BlockingEfficiency() float64 { return r.Block.Efficiency() }

// Evaluate scores the result against ground truth (the truly matching
// pairs per the exact decision rule) and returns the confusion summary.
// Under MaximizePrecision the precision is 1 by construction.
func (r *Result) Evaluate(truth []match.Pair) metrics.Confusion {
	var tp int64
	for _, p := range truth {
		if r.PairMatched(p.I, p.J) {
			tp++
		}
	}
	reported := r.MatchedPairCount()
	return metrics.Confusion{
		TruePositives:  tp,
		FalsePositives: reported - tp,
		FalseNegatives: int64(len(truth)) - tp,
	}
}

// Summary renders a one-line overview for logs and CLIs. It ends with the
// single-trust-domain label ResultJSON carries.
func (r *Result) Summary() string {
	s := fmt.Sprintf("pairs=%d blocked=%.2f%% unknown=%d allowance=%d smc=%d matched=%d strategy=%v",
		r.Block.TotalPairs(), 100*r.BlockingEfficiency(), r.Block.UnknownPairs,
		r.Allowance, r.Invocations, r.MatchedPairCount(), r.cfg.Strategy)
	if r.cfg.Tier != TierOff {
		s += fmt.Sprintf(" tier=%v tier-nonmatch=%d uncertain=%d",
			r.cfg.Tier, r.TierNonMatchedPairs(), r.TierUncertainPairs)
	}
	if r.DP != nil {
		// Under DP the allowance is of the padded handle pairs the walk
		// compares, not of the pairs= it sits beside.
		s += fmt.Sprintf(" dp-eps=%v dp-delta=%v dp-pairs=%d dummies=%d dummy-spent=%d",
			r.DP.TotalEpsilon, r.DP.TotalDelta, len(r.pads[0].View.ClassOf)*len(r.pads[1].View.ClassOf),
			r.DP.AliceDummies+r.DP.BobDummies, r.DP.DummySpent)
	}
	return s + " trust=single-domain (SMC and DP padding are a cost model here)"
}

// trainResidualClassifier implements the paper's strategy 3 (classifier
// c3): using the randomly selected SMC outcomes as training data, it
// learns a threshold τ on the average expected distance of a group pair's
// generalizations that minimizes training error, then labels every
// Unknown group pair by comparing its feature to τ. Pairs already
// resolved by SMC keep their exact labels (PairMatched checks them first).
func trainResidualClassifier(res *Result, ordered []blocking.GroupPair, rule *blocking.Rule) map[[2]int]bool {
	type example struct {
		feature float64
		matched bool
		weight  int
	}
	feature := func(gp blocking.GroupPair) float64 {
		exp := rule.ExpectedDistances(
			res.Block.R.Classes[gp.RI].Sequence,
			res.Block.S.Classes[gp.SI].Sequence, nil)
		sum := 0.0
		for _, v := range exp {
			sum += v
		}
		return sum / float64(len(exp))
	}
	// Build one training example per (group, verdict) with the count of
	// SMC pairs behind it. Walk the same order the budget was spent in.
	var examples []example
	for _, gp := range ordered {
		// The store counts the group's SMC outcomes wherever they sit in the
		// member enumeration: tier labels and replayed cross-mode verdicts
		// interleave with live purchases.
		resolved, matchedCount := res.purchased.group(gp.RI, gp.SI).counts()
		if resolved == 0 {
			if res.cfg.Tier == TierOff {
				break // budget ran out here; later groups are unresolved
			}
			// With the tier on, a group with no SMC verdicts may simply
			// have been tier-labeled end to end while the budget kept
			// flowing to later groups; keep scanning.
			continue
		}
		f := feature(gp)
		if matchedCount > 0 {
			examples = append(examples, example{feature: f, matched: true, weight: matchedCount})
		}
		if resolved-matchedCount > 0 {
			examples = append(examples, example{feature: f, matched: false, weight: resolved - matchedCount})
		}
	}
	verdicts := make(map[[2]int]bool, len(ordered))
	if len(examples) == 0 {
		// No training data (allowance 0): conservative all-non-match.
		for _, gp := range ordered {
			verdicts[[2]int{gp.RI, gp.SI}] = false
		}
		return verdicts
	}
	// Sweep candidate thresholds: τ just below/above each feature value.
	candidates := []float64{-1}
	for _, e := range examples {
		candidates = append(candidates, e.feature)
	}
	bestTau, bestErr := -1.0, int(^uint(0)>>1)
	for _, tau := range candidates {
		errs := 0
		for _, e := range examples {
			pred := e.feature <= tau
			if pred != e.matched {
				errs += e.weight
			}
		}
		if errs < bestErr {
			bestErr, bestTau = errs, tau
		}
	}
	for _, gp := range ordered {
		verdicts[[2]int{gp.RI, gp.SI}] = feature(gp) <= bestTau
	}
	return verdicts
}
