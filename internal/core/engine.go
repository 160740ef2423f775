package core

import (
	"fmt"
	"time"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/bloom"
	"pprl/internal/dataset"
	"pprl/internal/dpblock"
	"pprl/internal/heuristic"
	"pprl/internal/index"
	"pprl/internal/journal"
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
	schema, err := sharedSchema(alice, bob)
	if err != nil {
		return nil, err
	}
	qids, rule, err := cfg.normalize(schema)
	if err != nil {
		return nil, err
	}

	// Step 1 — each holder anonymizes its relation independently.
	var timings Timings
	start := time.Now()
	aView, err := cfg.AliceAnonymizer.Anonymize(alice.Data, qids, cfg.AliceK)
	if err != nil {
		return nil, fmt.Errorf("core: anonymizing alice: %w", err)
	}
	timings.AnonymizeAlice = time.Since(start)
	cfg.report("anonymize-alice", 1, 1)
	start = time.Now()
	bView, err := cfg.BobAnonymizer.Anonymize(bob.Data, qids, cfg.BobK)
	if err != nil {
		return nil, fmt.Errorf("core: anonymizing bob: %w", err)
	}
	timings.AnonymizeBob = time.Since(start)
	cfg.report("anonymize-bob", 1, 1)

	// Step 1b — DP mode: each holder attaches its Laplace-noised bin
	// counts to the view before the exchange, so the published bin sizes
	// (not just the bins) are ε-DP. Noising is timed apart from binning
	// so the bench can report the mechanism's own cost.
	if cfg.DPEnabled() {
		start = time.Now()
		if err := dpblock.Publish(aView, cfg.dpParams("alice")); err != nil {
			return nil, fmt.Errorf("core: noising alice: %w", err)
		}
		if err := dpblock.Publish(bView, cfg.dpParams("bob")); err != nil {
			return nil, fmt.Errorf("core: noising bob: %w", err)
		}
		timings.DPNoise = time.Since(start)
		cfg.report("dp-noise", 1, 1)
	}

	// Step 2 — blocking over the exchanged anonymized views.
	start = time.Now()
	block, err := blockViews(aView, bView, rule, &cfg)
	if err != nil {
		return nil, fmt.Errorf("core: blocking: %w", err)
	}
	timings.Blocking = time.Since(start)
	cfg.report("blocking", 1, 1)

	res, err := resolveBlocked(alice, bob, block, rule, qids, &cfg)
	if err != nil {
		return nil, err
	}
	res.Timings.AnonymizeAlice = timings.AnonymizeAlice
	res.Timings.AnonymizeBob = timings.AnonymizeBob
	res.Timings.DPNoise = timings.DPNoise
	res.Timings.Blocking = timings.Blocking
	return res, nil
}

// LinkPrepared runs only the SMC-selection and residual-labeling phase
// over a previously computed blocking result. Parameter sweeps use it to
// reuse the (expensive) anonymization and blocking stages across
// heuristics, strategies, and allowances: those knobs do not affect the
// blocked labels, only how the Unknown pairs are spent. The config's rule
// parameters (QIDs, thresholds) must be the ones the blocking result was
// built with.
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
	return resolveBlocked(alice, bob, block, rule, qids, &cfg)
}

// blockViews runs the blocking step through the hierarchy index —
// label-identical to the exhaustive scan (DESIGN.md §10), bin
// intersection when the views are DP releases — reporting per-row
// progress while it runs.
func blockViews(aView, bView *anonymize.Result, rule *blocking.Rule, cfg *Config) (*blocking.Result, error) {
	return index.Stream(aView, bView, rule, func(done, total int64) { cfg.report("blocking", done, total) })
}

// resolveBlocked implements steps 3-5: heuristic ordering, budgeted SMC
// (through the resolution kernel), and residual labeling.
func resolveBlocked(alice, bob Holder, block *blocking.Result, rule *blocking.Rule, qids []int, cfg *Config) (*Result, error) {
	res := &Result{cfg: *cfg, rule: rule, qids: qids, Block: block}
	// A fractional value would be bought rounded; refuse it before anything
	// is journaled or encrypted.
	for x, d := range []*dataset.Dataset{alice.Data, bob.Data} {
		if err := smc.CheckIntegral(d.Schema(), d.Records(), qids, cfg.Scale, 0); err != nil {
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
	if dp {
		var err error
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
	// is exhausted.
	allowance := cfg.Allowance
	if allowance == 0 {
		allowance = int64(cfg.AllowanceFraction * float64(block.TotalPairs()))
	}
	res.Allowance = allowance

	// Declare the run to the journal before any cryptographic setup: a
	// fresh journal persists the manifest, a resumed one validates it
	// (refusing a run whose config or inputs changed) and hands back the
	// verdicts already purchased by the interrupted run.
	var journaled []journal.Verdict
	if cfg.Journal != nil {
		var rec *journal.Recovered
		if w, ok := cfg.Journal.(interface{ Recovered() *journal.Recovered }); ok {
			rec = w.Recovered()
		}
		m, err := runManifest(alice, bob, block, cfg, allowance, rec)
		if err == nil {
			journaled, err = cfg.Journal.Begin(m)
		}
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	// Both label stores exist from here on; each allocates per class pair,
	// on that pair's first label.
	posA, posB := memberPositions(block.R), memberPositions(block.S)
	res.purchased = newLabelStore(block, posA, posB)
	res.tiered = newLabelStore(block, posA, posB)

	// The triage tier labels the confidently dissimilar Unknown pairs
	// NonMatch for free, in the same walk that spends the budget;
	// CLK-encoding both relations is its dominant cost and what
	// Timings.Tier reports.
	var tier func(i, j int) bool
	if cfg.Tier == TierBloom {
		start := time.Now()
		enc := bloom.NewDefaultEncoder()
		aF := bloom.EncodeRecords(enc, alice.Data, qids)
		bF := bloom.EncodeRecords(enc, bob.Data, qids)
		tier = func(i, j int) bool { return aF[i].Dice(bF[j]) <= cfg.TierLow }
		res.Timings.Tier = time.Since(start)
		cfg.report("tier", 1, 1)
	}

	spec, err := smc.SpecFromRule(rule, cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("core: building SMC spec: %w", err)
	}
	spec.BoundBySchema(alice.Data.Schema(), qids)
	encA, encB := smc.EncodeRecords(alice.Data, qids, cfg.Scale), smc.EncodeRecords(bob.Data, qids, cfg.Scale)
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

	// The resolution kernel (DESIGN.md §16) walks the ordered groups and
	// spends the budget; this adapter supplies the class-pair walks and
	// files every event into the label stores — a purchased verdict,
	// journaled or live, the same way: it is exact under any tier
	// configuration.
	start := time.Now()
	uncertain, err := resolve.Run(resolve.Input{
		Groups: len(ordered),
		Group: func(k int) resolve.Group {
			gp := ordered[k]
			return resolve.Group{A: walkA.Classes[gp.RI].Members, B: walkB.Classes[gp.SI].Members}
		},
		Budget:     allowance,
		Journaled:  journaled,
		Tier:       tier,
		Comparator: cmp,
		Workers:    cfg.SMCWorkers,
		Journal:    cfg.Journal,
		Context:    cfg.Context,
		Progress:   func(done, total int64) { cfg.report("smc", done, total) },
		Sink: func(ev resolve.Event) {
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
		},
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res.TierUncertainPairs = uncertain
	res.Invocations = cmp.Invocations()
	res.SMCBytes = cmp.BytesTransferred()
	res.Timings.SMC = time.Since(start)

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

// report invokes the progress callback if configured.
func (c *Config) report(stage string, done, total int64) {
	if c.Progress != nil {
		c.Progress(stage, done, total)
	}
}
