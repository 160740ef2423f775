package core

import (
	"fmt"

	"pprl/internal/blocking"
	"pprl/internal/bloom"
	"pprl/internal/dataset"
	"pprl/internal/dpblock"
	"pprl/internal/heuristic"
	"pprl/internal/index"
	"pprl/internal/metrics"
	"pprl/internal/resolve"
	"pprl/internal/smc"
)

// Holder wraps a data holder's relation. The struct exists so call sites
// read Link(alice, bob, …) with named roles and so holder-side options
// can grow without breaking the signature.
type Holder struct {
	Data *dataset.Dataset
}

// Link runs the full hybrid private record linkage pipeline between two
// relations sharing a schema instance, and returns the labeling of all
// |alice|×|bob| record pairs plus cost accounting. The config is taken by
// value; defaults are filled per DefaultConfig's documentation.
func Link(alice, bob Holder, cfg Config) (*Result, error) {
	block, rule, qids, err := prepare(alice, bob, &cfg)
	if err != nil {
		return nil, err
	}
	return resolveBlocked(alice, bob, block, rule, qids, &cfg)
}

// Prepare runs Link's first half — anonymization, the DP release when
// Epsilon is set, and blocking — and returns the blocking result with the
// decision rule it was built under; LinkPrepared finishes it.
func Prepare(alice, bob Holder, cfg Config) (*blocking.Result, *blocking.Rule, error) {
	block, rule, _, err := prepare(alice, bob, &cfg)
	return block, rule, err
}

// prepare normalizes cfg and runs steps 1 and 2, starting cfg's stage
// clock.
func prepare(alice, bob Holder, cfg *Config) (*blocking.Result, *blocking.Rule, []int, error) {
	schema, err := sharedSchema(alice, bob)
	if err != nil {
		return nil, nil, nil, err
	}
	qids, rule, err := cfg.normalize(schema)
	if err != nil {
		return nil, nil, nil, err
	}

	// Step 1 — each holder anonymizes its relation independently.
	cfg.stages = new(metrics.Stages)
	cfg.stages.Begin()
	aView, err := cfg.AliceAnonymizer.Anonymize(alice.Data, qids, cfg.AliceK)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: anonymizing alice: %w", err)
	}
	cfg.report("anonymize-alice", 1, 1)
	bView, err := cfg.BobAnonymizer.Anonymize(bob.Data, qids, cfg.BobK)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: anonymizing bob: %w", err)
	}
	cfg.report("anonymize-bob", 1, 1)

	// Step 1b — DP mode: each holder attaches its Laplace-noised bin
	// counts to the view before the exchange, so the published bin sizes
	// (not just the bins) are ε-DP. Noising is its own stage so the bench
	// can report the mechanism's own cost.
	if cfg.DPEnabled() {
		if err := dpblock.Publish(aView, cfg.dpParams("alice")); err != nil {
			return nil, nil, nil, fmt.Errorf("core: noising alice: %w", err)
		}
		if err := dpblock.Publish(bView, cfg.dpParams("bob")); err != nil {
			return nil, nil, nil, fmt.Errorf("core: noising bob: %w", err)
		}
		cfg.report("dp-noise", 1, 1)
	}

	// Step 2 — blocking over the exchanged anonymized views, through the
	// hierarchy index: label-identical to the exhaustive scan (DESIGN.md
	// §10), bin intersection when the views are DP releases.
	block, err := index.Stream(aView, bView, rule, func(done, total int64) { cfg.report("blocking", done, total) })
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: blocking: %w", err)
	}
	cfg.report("blocking", 1, 1)
	return block, rule, qids, nil
}

// LinkPrepared runs only the SMC-selection and residual-labeling phase
// over a blocking result from Prepare or a previous Link. Parameter
// sweeps use it to reuse the (expensive) anonymization and blocking
// stages across heuristics, strategies, and allowances: those knobs do
// not affect the blocked labels, only how the Unknown pairs are spent.
// The config's rule parameters (QIDs, thresholds) must be the ones the
// blocking result was built with.
func LinkPrepared(alice, bob Holder, block *blocking.Result, cfg Config) (*Result, error) {
	schema, err := sharedSchema(alice, bob)
	if err != nil {
		return nil, err
	}
	qids, rule, err := cfg.normalize(schema)
	if err != nil {
		return nil, err
	}
	if len(qids) != len(block.R.QIDs) {
		return nil, fmt.Errorf("core: config has %d QIDs, blocking result has %d", len(qids), len(block.R.QIDs))
	}
	for i := range qids {
		if qids[i] != block.R.QIDs[i] {
			return nil, fmt.Errorf("core: config QID %d (%d) disagrees with blocking result (%d)", i, qids[i], block.R.QIDs[i])
		}
	}
	cfg.stages = new(metrics.Stages)
	cfg.stages.Begin()
	return resolveBlocked(alice, bob, block, rule, qids, &cfg)
}

// resolveBlocked implements steps 3-5: heuristic ordering, budgeted SMC
// (through the resolution kernel), and residual labeling.
func resolveBlocked(alice, bob Holder, block *blocking.Result, rule *blocking.Rule, qids []int, cfg *Config) (*Result, error) {
	res := &Result{cfg: *cfg, rule: rule, qids: qids, Block: block}
	// A fractional value would be bought rounded; refuse it before anything
	// is journaled or encrypted.
	for x, d := range []*dataset.Dataset{alice.Data, bob.Data} {
		if err := smc.CheckIntegral(d.Schema(), d.Records(), qids, 1, 0); err != nil {
			return nil, fmt.Errorf("core: %s: %w", [2]string{"alice", "bob"}[x], err)
		}
	}

	// DP mode and the blocking result must agree: a prepared block built
	// under different ε or seed would pad to a different release.
	dp := cfg.DPEnabled()
	if dp {
		if block.R.DP == nil || block.S.DP == nil {
			return nil, fmt.Errorf("core: Epsilon set but the blocking result has no DP release")
		}
		if block.R.DP.Epsilon != cfg.Epsilon || block.R.DP.Seed != cfg.dpParams("alice").Seed ||
			block.S.DP.Epsilon != cfg.Epsilon || block.S.DP.Seed != cfg.dpParams("bob").Seed {
			return nil, fmt.Errorf("core: config DP parameters (ε=%v seed=%d) disagree with the blocking result's release (ε=%v/%v seeds=%d/%d)",
				cfg.Epsilon, cfg.DPSeed, block.R.DP.Epsilon, block.S.DP.Epsilon, block.R.DP.Seed, block.S.DP.Seed)
		}
	} else if block.R.DP != nil || block.S.DP != nil {
		return nil, fmt.Errorf("core: blocking result carries a DP release but Config.Epsilon is unset")
	}

	// Step 3 — order the Unknown group pairs for the SMC budget.
	var ordered []blocking.GroupPair
	switch cfg.Strategy {
	case MaximizePrecision:
		ordered = heuristic.Order(block, rule, cfg.Heuristic, false)
	case MaximizeRecall:
		// Probably-mismatching pairs first, so the residual "match"
		// default is as safe as the budget allows.
		ordered = heuristic.Order(block, rule, cfg.Heuristic, true)
	case TrainClassifier:
		ordered = heuristic.Shuffle(block, cfg.Seed)
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", cfg.Strategy)
	}
	// DP: the walk runs over padded copies of both releases — what a
	// session's holders at the same seeds publish — while Block stays in
	// record space. DummyPairs is the padding of the candidate (Unknown) bin
	// pairs only: dummies no candidate meets cost nothing.
	walkA, walkB := block.R, block.S
	var err error
	if dp {
		if res.pads[0], err = dpblock.PadCopy(block.R); err == nil {
			res.pads[1], err = dpblock.PadCopy(block.S)
		}
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		walkA, walkB = res.pads[0].View, res.pads[1].View
		res.DP = &DPStats{
			AliceEpsilon: block.R.DP.Epsilon,
			BobEpsilon:   block.S.DP.Epsilon,
			TotalEpsilon: block.R.DP.Epsilon + block.S.DP.Epsilon,
			Delta:        block.R.DP.Delta,
			TotalDelta:   block.R.DP.Delta + block.S.DP.Delta,
			Level:        block.R.DP.Level,
			AliceBins:    len(block.R.Classes),
			BobBins:      len(block.S.Classes),
			AliceDummies: res.pads[0].Map.Dummies(),
			BobDummies:   res.pads[1].Map.Dummies(),
		}
		for _, gp := range ordered {
			real := int64(block.R.Classes[gp.RI].Size()) * int64(block.S.Classes[gp.SI].Size())
			res.DP.DummyPairs += block.R.DP.NoisedCounts[gp.RI]*block.S.DP.NoisedCounts[gp.SI] - real
		}
	}

	// Step 4 — resolve pairs with the SMC comparator until the allowance
	// is exhausted: the walk and its budget are the purchase plan.
	walk := heuristic.Plan(ordered, walkA, walkB, cfg.Allowance, cfg.AllowanceFraction)
	res.Allowance = walk.Budget

	// Declare the run to the journal before any cryptographic setup: a
	// fresh journal persists the manifest, a resumed one validates it
	// (refusing a run whose config or inputs changed) and hands back the
	// verdicts already purchased by the interrupted run.
	if cfg.Journal != nil {
		if walk.Journaled, err = cfg.Journal.Begin(runManifest(alice, bob, block, cfg, walk.Budget)); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	// Both label stores exist from here on; each allocates per class pair,
	// on that pair's first label.
	posA, posB := memberPositions(block.R), memberPositions(block.S)
	res.purchased = newLabelStore(block, posA, posB)
	res.tiered = newLabelStore(block, posA, posB)
	cfg.report("order", 1, 1)

	// The triage tier labels the confidently dissimilar Unknown pairs
	// NonMatch for free, in the same walk that spends the budget;
	// CLK-encoding both relations is its dominant cost and all its stage
	// holds.
	if cfg.Tier == TierBloom {
		enc := bloom.NewDefaultEncoder()
		aF := bloom.EncodeRecords(enc, alice.Data, qids)
		bF := bloom.EncodeRecords(enc, bob.Data, qids)
		walk.Tier = func(i, j int) bool { return aF[i].Dice(bF[j]) <= cfg.TierLow }
		cfg.report("tier", 1, 1)
	}

	spec, err := smc.SpecFromRule(rule, 1)
	if err != nil {
		return nil, fmt.Errorf("core: building SMC spec: %w", err)
	}
	spec.BoundBySchema(alice.Data.Schema(), qids)
	encA, encB := smc.EncodeRecords(alice.Data, qids, 1), smc.EncodeRecords(bob.Data, qids, 1)
	if dp {
		// A dummy handle answers with its side's sentinel row.
		for x, enc := range []*[][]int64{&encA, &encB} {
			row, err := dpblock.DummyRow(alice.Data.Schema(), qids, spec, x == 0)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			*enc = dpblock.PadEncodings(*enc, row, res.pads[x].Map)
		}
	}
	cmp, err := cfg.Comparator(encA, encB, spec, cfg.SMCWorkers)
	if err != nil {
		return nil, fmt.Errorf("core: building comparator: %w", err)
	}
	defer cmp.Close()
	res.SMCWorkers = cfg.SMCWorkers
	cfg.report("comparator", 1, 1)

	// The resolution kernel (DESIGN.md §16) spends the plan's budget; the
	// sink files every event into the label stores, a purchased verdict the
	// same way journaled or live: it is exact under any tier configuration.
	walk.Comparator = cmp
	walk.Workers = cfg.SMCWorkers
	walk.Latency = &res.Latency
	walk.Journal = cfg.Journal
	walk.Context = cfg.Context
	walk.Progress = func(done, total int64) { cfg.report("smc", done, total) }
	walk.Sink = func(ev resolve.Event) {
		store := res.purchased
		switch ev.Kind {
		case resolve.Tiered:
			store = res.tiered
		case resolve.Replayed:
			res.Resume.ResumedPairs++
			res.Resume.ReplayedAllowance++
		}
		if dp {
			res.fileHandles(store, ev)
		} else {
			store.setSpan(ev.I, ev.Js, ev.Verdicts)
		}
	}
	uncertain, err := resolve.Run(walk)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res.TierUncertainPairs = uncertain
	res.Invocations = cmp.Invocations()
	res.SMCBytes = cmp.BytesTransferred()
	_, res.Stages = cfg.stages.Snapshot()

	// Step 5 — residual labeling.
	switch cfg.Strategy {
	case MaximizePrecision:
		// Residual pairs stay non-matched; nothing to record.
	case MaximizeRecall:
		res.residualMatch = true
	case TrainClassifier:
		res.groupVerdicts = trainResidualClassifier(res, ordered, rule)
	}
	return res, nil
}

func sharedSchema(alice, bob Holder) (*dataset.Schema, error) {
	if alice.Data == nil || bob.Data == nil {
		return nil, fmt.Errorf("core: both holders need data")
	}
	schema := alice.Data.Schema()
	if bob.Data.Schema() != schema {
		return nil, fmt.Errorf("core: holders must share one schema instance: build both datasets over the same *dataset.Schema (e.g. one LoadSchema result)")
	}
	return schema, nil
}

// report charges the time since the previous event to stage, then
// invokes the progress callback if configured.
func (c *Config) report(stage string, done, total int64) {
	c.stages.Report(stage, done, total)
	if c.Progress != nil {
		c.Progress(stage, done, total)
	}
}
