package incremental_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/blocking"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/incremental"
	"pprl/internal/journal"
	"pprl/internal/resolve"
	"pprl/internal/smc"
	"pprl/internal/testkit"
)

// ample is an allowance no test workload can exhaust.
const ample = int64(1) << 40

// batchesOf splits a dataset's records into batches of at most n.
func batchesOf(d *dataset.Dataset, n int) [][]dataset.Record {
	recs := d.Records()
	var out [][]dataset.Record
	for len(recs) > 0 {
		k := n
		if k > len(recs) {
			k = len(recs)
		}
		out = append(out, recs[:k])
		recs = recs[k:]
	}
	return out
}

// appendInterleaved drives eng through alternating alice/bob batches and
// returns the union of emitted delta pairs, failing on any duplicate
// emission (the delta contract: a pair is announced at most once).
func appendInterleaved(t *testing.T, eng *incremental.Engine, alice, bob *dataset.Dataset) map[[2]int]bool {
	t.Helper()
	ab := batchesOf(alice, alice.Len()/3+1)
	bb := batchesOf(bob, bob.Len()/2+1)
	union := make(map[[2]int]bool)
	for len(ab) > 0 || len(bb) > 0 {
		if len(ab) > 0 {
			res, err := eng.Append(0, ab[0])
			if err != nil {
				t.Fatal(err)
			}
			addDeltas(t, union, res.Deltas)
			ab = ab[1:]
		}
		if len(bb) > 0 {
			res, err := eng.Append(1, bb[0])
			if err != nil {
				t.Fatal(err)
			}
			addDeltas(t, union, res.Deltas)
			bb = bb[1:]
		}
	}
	return union
}

func addDeltas(t *testing.T, union map[[2]int]bool, ds []incremental.Delta) {
	t.Helper()
	for _, d := range ds {
		key := [2]int{d.I, d.J}
		if union[key] {
			t.Fatalf("pair (%d,%d) emitted twice", d.I, d.J)
		}
		union[key] = true
	}
}

func incrementalConfig(w *testkit.World, allowance int64) incremental.Config {
	return incremental.Config{
		QIDs:       w.Alice.Schema().Names(),
		Theta:      w.Cfg.Theta,
		Thresholds: w.Cfg.Thresholds,
		Allowance:  allowance,
		Strategy:   core.MaximizePrecision,
	}
}

func diffPairSets(t *testing.T, got, want map[[2]int]bool, label string) {
	t.Helper()
	for p := range want {
		if !got[p] {
			t.Errorf("%s: pair (%d,%d) in frozen match set but never emitted as a delta", label, p[0], p[1])
		}
	}
	for p := range got {
		if !want[p] {
			t.Errorf("%s: delta (%d,%d) emitted but not in the frozen match set", label, p[0], p[1])
		}
	}
}

// TestIncrementalDedup checks the self-linkage mode: batch splitting must
// not change the delta union, pairs are normalized (i < j, no
// self-pairs), and with an ample allowance the union equals the exact
// rule's match set over all unordered pairs.
func TestIncrementalDedup(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		w := testkit.Generate(seed)
		d, err := w.Alice.Concat(w.Bob)
		if err != nil {
			t.Fatal(err)
		}
		icfg := incrementalConfig(w, ample)
		icfg.Dedup = true

		runDedup := func(batches [][]dataset.Record) (map[[2]int]bool, incremental.Stats) {
			eng, err := incremental.New(d.Schema(), icfg)
			if err != nil {
				t.Fatal(err)
			}
			if !eng.Dedup() {
				t.Fatal("engine lost the dedup flag")
			}
			union := make(map[[2]int]bool)
			for _, b := range batches {
				res, err := eng.Append(0, b)
				if err != nil {
					t.Fatal(err)
				}
				addDeltas(t, union, res.Deltas)
			}
			return union, eng.Stats()
		}

		multi, mstats := runDedup(batchesOf(d, d.Len()/4+1))
		single, sstats := runDedup(batchesOf(d, d.Len()))
		diffPairSets(t, multi, single, fmt.Sprintf("dedup seed %d multi-vs-single", seed))
		if mstats.Purchased != sstats.Purchased || mstats.Used != sstats.Used {
			t.Errorf("dedup seed %d: multi-batch spend (%d,%d) differs from single-batch (%d,%d)",
				seed, mstats.Purchased, mstats.Used, sstats.Purchased, sstats.Used)
		}

		// Ground truth: the exact decision rule over all unordered pairs.
		qids, err := d.Schema().Resolve(d.Schema().Names())
		if err != nil {
			t.Fatal(err)
		}
		rule := mustRule(t, d.Schema(), qids, w.Cfg.Theta, w.Cfg.Thresholds)
		truth := make(map[[2]int]bool)
		for i := 0; i < d.Len(); i++ {
			si := blocking.RecordSequence(d, qids, i)
			for j := i + 1; j < d.Len(); j++ {
				if rule.DecideExact(si, blocking.RecordSequence(d, qids, j)) {
					truth[[2]int{i, j}] = true
				}
			}
		}
		diffPairSets(t, multi, truth, fmt.Sprintf("dedup seed %d vs exact rule", seed))
		for p := range multi {
			if p[0] >= p[1] {
				t.Errorf("dedup seed %d: pair (%d,%d) not normalized to i<j", seed, p[0], p[1])
			}
		}
	}
}

func mustRule(t *testing.T, schema *dataset.Schema, qids []int, theta float64, thresholds []float64) *blocking.Rule {
	t.Helper()
	var rule *blocking.Rule
	var err error
	if len(thresholds) > 0 {
		rule, err = blocking.NewRule(distance.MetricsFor(schema, qids), thresholds)
	} else {
		rule, err = blocking.RuleFor(schema, qids, theta)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rule
}

// commitCrash injects a crash at the delta-exposure barrier: the verdicts
// of the target batch reach the journal but its commit record does not.
type commitCrash struct {
	*journal.Writer
	failBatch uint32
}

func (c *commitCrash) RecordBatchCommit(b journal.BatchCommit) error {
	if b.Batch == c.failBatch {
		return fmt.Errorf("injected crash before commit of batch %d", b.Batch)
	}
	return c.Writer.RecordBatchCommit(b)
}

// TestIncrementalCrashResume kills the engine between a batch's journaled
// verdicts and its commit, rebuilds it from the journal, replays the
// stored batches, and asserts the exposed delta stream equals a
// never-crashed run's — with the committed prefix replayed at zero live
// cost and no delta emitted twice.
func TestIncrementalCrashResume(t *testing.T) {
	w := testkit.Generate(3)
	batches := batchesOf(w.Alice, w.Alice.Len()/3+1)
	if len(batches) < 3 {
		t.Fatalf("fixture too small: %d batches", len(batches))
	}
	bobBatch := w.Bob.Records()
	icfg := incrementalConfig(w, ample)

	// Reference: an uninterrupted run over the same append sequence.
	ref, err := incremental.New(w.Alice.Schema(), icfg)
	if err != nil {
		t.Fatal(err)
	}
	refUnion := make(map[[2]int]bool)
	var refPerBatch [][]incremental.Delta
	appendRef := func(side int, recs []dataset.Record) {
		res, err := ref.Append(side, recs)
		if err != nil {
			t.Fatal(err)
		}
		addDeltas(t, refUnion, res.Deltas)
		refPerBatch = append(refPerBatch, res.Deltas)
	}
	appendRef(1, bobBatch)
	for _, b := range batches {
		appendRef(0, b)
	}

	// Phase 1: journaled run, crash at batch 2's commit barrier.
	path := filepath.Join(t.TempDir(), "live.wal")
	jw, err := journal.Create(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := icfg
	cfg1.Journal = &commitCrash{Writer: jw, failBatch: 2}
	eng1, err := incremental.New(w.Alice.Schema(), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	exposed := make(map[[2]int]bool)
	r0, err := eng1.Append(1, bobBatch)
	if err != nil {
		t.Fatal(err)
	}
	addDeltas(t, exposed, r0.Deltas)
	r1, err := eng1.Append(0, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	addDeltas(t, exposed, r1.Deltas)
	if _, err := eng1.Append(0, batches[1]); err == nil {
		t.Fatal("injected commit crash did not surface")
	}
	// The engine is poisoned now; further appends must refuse.
	if _, err := eng1.Append(0, batches[1]); err == nil {
		t.Fatal("poisoned engine accepted another batch")
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: rebuild from the journal and re-append everything stored.
	jw2, err := journal.Resume(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer jw2.Close()
	cfg2 := icfg
	cfg2.Journal = jw2
	cfg2.Recovered = jw2.Recovered()
	eng2, err := incremental.New(w.Alice.Schema(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng2.PendingReplay(); got != 3 {
		t.Fatalf("PendingReplay() = %d, want 3 (two committed + one open frame)", got)
	}
	// Committed batches replay: identical deltas, flagged Replayed, and
	// not re-exposed.
	for i, stored := range [][]dataset.Record{bobBatch, batches[0]} {
		side := 0
		if i == 0 {
			side = 1
		}
		res, err := eng2.Append(side, stored)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Replayed {
			t.Fatalf("committed batch %d did not replay", i)
		}
		want := refPerBatch[i]
		if len(res.Deltas) != len(want) {
			t.Fatalf("replayed batch %d emitted %d deltas, original %d", i, len(res.Deltas), len(want))
		}
		for k := range want {
			if res.Deltas[k] != want[k] {
				t.Fatalf("replayed batch %d delta %d = %+v, want %+v", i, k, res.Deltas[k], want[k])
			}
		}
	}
	if live := eng2.Stats().Purchased; live != 0 {
		t.Fatalf("committed replay bought %d comparisons, want 0", live)
	}
	// The torn batch re-processes: its journaled verdict prefix is free,
	// its deltas are exposed now (the crash preceded the barrier).
	res2, err := eng2.Append(0, batches[1])
	if err != nil {
		t.Fatal(err)
	}
	if res2.Replayed {
		t.Fatal("uncommitted tail batch must not report Replayed")
	}
	addDeltas(t, exposed, res2.Deltas)
	// Remaining batches run fresh.
	for _, b := range batches[2:] {
		res, err := eng2.Append(0, b)
		if err != nil {
			t.Fatal(err)
		}
		addDeltas(t, exposed, res.Deltas)
	}
	diffPairSets(t, exposed, refUnion, "crash-resume")
	st, rst := eng2.Stats(), ref.Stats()
	if st.Used != rst.Used {
		t.Errorf("resumed lifetime pool position %d, uninterrupted run %d", st.Used, rst.Used)
	}
	if st.Replayed == 0 {
		t.Error("resume replayed no verdicts despite journaled batches")
	}
	if st.Purchased+st.Replayed != rst.Purchased {
		t.Errorf("purchased %d + replayed %d ≠ uninterrupted purchases %d", st.Purchased, st.Replayed, rst.Purchased)
	}

	// A tampered stored batch must be refused, not silently relinked.
	jw3, err := journal.Resume(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jw3.Close()
	cfg3 := icfg
	cfg3.Journal = jw3
	cfg3.Recovered = jw3.Recovered()
	eng3, err := incremental.New(w.Alice.Schema(), cfg3)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]dataset.Record(nil), bobBatch...)
	tampered[0].EntityID += 1000
	if _, err := eng3.Append(1, tampered); err == nil {
		t.Fatal("digest mismatch on a stored batch was not detected")
	}
}

// TestIncrementalTierRetuneResumeNeverOverdraws crashes at the tail
// batch's commit barrier and resumes with the tier switched the other
// way — the tier knobs are outside the manifest digest, so the journal
// accepts it. The resumed walk then differs from the one that bought the
// journaled verdicts (pairs the tier labeled now compete for the pool, or
// the reverse), and those purchases must still be charged before anything
// new is bought: the lifetime pool is never overdrawn.
func TestIncrementalTierRetuneResumeNeverOverdraws(t *testing.T) {
	const allowance = 20
	w := testkit.Generate(1)
	steps := []struct {
		side int
		recs []dataset.Record
	}{{1, w.Bob.Records()}, {0, w.Alice.Records()}}
	for _, first := range []core.TierMode{core.TierBloom, core.TierOff} {
		second := core.TierBloom
		if first == core.TierBloom {
			second = core.TierOff
		}
		path := filepath.Join(t.TempDir(), "live.wal")
		jw, err := journal.Create(path, journal.Options{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg1 := incrementalConfig(w, allowance)
		cfg1.Tier = first
		cfg1.Journal = &commitCrash{Writer: jw, failBatch: 1}
		eng1, err := incremental.New(w.Alice.Schema(), cfg1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng1.Append(steps[0].side, steps[0].recs); err != nil {
			t.Fatal(err)
		}
		if _, err := eng1.Append(steps[1].side, steps[1].recs); err == nil {
			t.Fatal("injected commit crash did not surface")
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}

		jw2, err := journal.Resume(path, journal.Options{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(jw2.Recovered().Verdicts); n == 0 {
			t.Fatalf("tier %v: the crashed run journaled no purchases; the fixture exercises nothing", first)
		}
		cfg2 := incrementalConfig(w, allowance)
		cfg2.Tier = second
		cfg2.Journal = jw2
		cfg2.Recovered = jw2.Recovered()
		eng2, err := incremental.New(w.Alice.Schema(), cfg2)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range steps {
			if _, err := eng2.Append(s.side, s.recs); err != nil {
				t.Fatalf("tier %v→%v: %v", first, second, err)
			}
		}
		if err := jw2.Close(); err != nil {
			t.Fatal(err)
		}
		st := eng2.Stats()
		if st.Used > allowance {
			t.Errorf("tier %v→%v: pool overdrawn: used %d of %d", first, second, st.Used, allowance)
		}
		if st.Purchased+st.Replayed != st.Used {
			t.Errorf("tier %v→%v: purchased %d + replayed %d ≠ used %d", first, second, st.Purchased, st.Replayed, st.Used)
		}
		if st.Replayed != int64(len(cfg2.Recovered.Verdicts)) {
			t.Errorf("tier %v→%v: replayed %d of %d journaled purchases", first, second, st.Replayed, len(cfg2.Recovered.Verdicts))
		}
	}
	t.Run("committed", tierRetuneCommitted)
}

// tierRetuneCommitted is the same retune over batches that committed: a dataset shut down cleanly with the tier one way restarts
// with it the other way (or narrowed). A committed frame is reconstructed
// from the frame alone — its purchases and its tier labels — so every
// replayed batch carries the deltas it committed with, in order, buys
// nothing and journals nothing; the new setting applies from the first
// batch without a frame. Before the frame's tier labels were read, a
// bloom → off restart hit "committed batch N needs a fresh purchase" on
// every world here and poisoned the engine, and an off → bloom restart
// under maximize-recall re-labelled the residual pairs of a drained pool.
func tierRetuneCommitted(t *testing.T) {
	type setting struct {
		mode core.TierMode
		low  float64
	}
	bloom, off, narrow := setting{core.TierBloom, 0}, setting{core.TierOff, 0}, setting{core.TierBloom, 0.5}
	for seed := int64(1); seed <= 6; seed++ {
		w := testkit.Generate(seed)
		half := w.Alice.Len() / 2
		committed := []struct {
			side int
			recs []dataset.Record
		}{{1, w.Bob.Records()}, {0, w.Alice.Records()[:half]}}
		tail := w.Alice.Records()[half:]
		for _, arm := range []struct {
			first, second setting
			allowance     int64
			strategy      core.Strategy
		}{
			{bloom, off, 0, core.MaximizePrecision},
			{bloom, narrow, 0, core.MaximizePrecision},
			{off, bloom, 0, core.MaximizePrecision},
			{off, bloom, 20, core.MaximizeRecall},
			{bloom, off, 20, core.MaximizeRecall},
		} {
			name := fmt.Sprintf("world %d, tier %v/%v → %v/%v, allowance %d, %v",
				seed, arm.first.mode, arm.first.low, arm.second.mode, arm.second.low, arm.allowance, arm.strategy)
			config := func(s setting) incremental.Config {
				cfg := incrementalConfig(w, arm.allowance)
				cfg.Strategy, cfg.Tier, cfg.TierLow = arm.strategy, s.mode, s.low
				return cfg
			}
			path := filepath.Join(t.TempDir(), "live.wal")
			jw, err := journal.Create(path, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg1 := config(arm.first)
			cfg1.Journal = jw
			eng1, err := incremental.New(w.Alice.Schema(), cfg1)
			if err != nil {
				t.Fatal(err)
			}
			var want [][]incremental.Delta
			for _, s := range committed {
				res, err := eng1.Append(s.side, s.recs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want = append(want, res.Deltas)
			}
			before := eng1.Stats()
			if err := jw.Close(); err != nil {
				t.Fatal(err)
			}
			size, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}

			jw2, err := journal.Resume(path, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg2 := config(arm.second)
			cfg2.Journal, cfg2.Recovered = jw2, jw2.Recovered()
			eng2, err := incremental.New(w.Alice.Schema(), cfg2)
			if err != nil {
				t.Fatal(err)
			}
			for b, s := range committed {
				res, err := eng2.Append(s.side, s.recs)
				if err != nil {
					t.Fatalf("%s: replaying committed batch %d: %v", name, b, err)
				}
				if !res.Replayed || !reflect.DeepEqual(res.Deltas, want[b]) {
					t.Fatalf("%s: batch %d replayed=%v with %d deltas, committed with %d: a committed batch moved",
						name, b, res.Replayed, len(res.Deltas), len(want[b]))
				}
			}
			after := eng2.Stats()
			if after.Purchased != 0 || after.Used != before.Used || after.TierNonMatches != before.TierNonMatches || after.Deltas != before.Deltas {
				t.Errorf("%s: restart accounting %+v, the first life ended at %+v", name, after, before)
			}
			if now, err := os.Stat(path); err != nil || now.Size() != size.Size() {
				t.Errorf("%s: replaying committed batches grew the journal from %d to %v bytes (%v)", name, size.Size(), now, err)
			}
			// The batch without a frame runs under the setting of this life.
			if _, err := eng2.Append(0, tail); err != nil {
				t.Fatalf("%s: appending after the restart: %v", name, err)
			}
			if grew := eng2.Stats().TierNonMatches > after.TierNonMatches; grew && arm.second.mode == core.TierOff {
				t.Errorf("%s: the tier is off in this life and still labeled pairs of the new batch", name)
			}
			if err := jw2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestIncrementalBindingAllowance checks the weaker invariants of an
// exhausted pool: precision mode emits only true matches and never
// overdraws; recall mode emits a superset of the true matches.
func TestIncrementalBindingAllowance(t *testing.T) {
	w := testkit.Generate(7)
	qids, err := w.Alice.Schema().Resolve(w.Alice.Schema().Names())
	if err != nil {
		t.Fatal(err)
	}
	rule := mustRule(t, w.Alice.Schema(), qids, w.Cfg.Theta, w.Cfg.Thresholds)
	truth := make(map[[2]int]bool)
	for i := 0; i < w.Alice.Len(); i++ {
		si := blocking.RecordSequence(w.Alice, qids, i)
		for j := 0; j < w.Bob.Len(); j++ {
			if rule.DecideExact(si, blocking.RecordSequence(w.Bob, qids, j)) {
				truth[[2]int{i, j}] = true
			}
		}
	}
	for _, strat := range []core.Strategy{core.MaximizePrecision, core.MaximizeRecall} {
		icfg := incrementalConfig(w, 25)
		icfg.Strategy = strat
		eng, err := incremental.New(w.Alice.Schema(), icfg)
		if err != nil {
			t.Fatal(err)
		}
		got := appendInterleaved(t, eng, w.Alice, w.Bob)
		st := eng.Stats()
		if st.Used > 25 {
			t.Errorf("%v: pool overdrawn: used %d of 25", strat, st.Used)
		}
		switch strat {
		case core.MaximizePrecision:
			for p := range got {
				if !truth[p] {
					t.Errorf("precision mode emitted false pair (%d,%d)", p[0], p[1])
				}
			}
		case core.MaximizeRecall:
			for p := range truth {
				if !got[p] {
					t.Errorf("recall mode missed true pair (%d,%d)", p[0], p[1])
				}
			}
		}
	}
}

// TestIncrementalRejects exercises the config and batch validation edges.
// A negative level is refused by New: it used to pass and panic in the
// binner on the first Append, after the batch mark was journaled.
func TestIncrementalRejects(t *testing.T) {
	w := testkit.Generate(1)
	schema := w.Alice.Schema()
	for _, tc := range []struct {
		name string
		set  func(*incremental.Config)
		want string
	}{
		{"empty config", func(c *incremental.Config) { *c = incremental.Config{} }, "QIDs are required"},
		{"TrainClassifier", func(c *incremental.Config) { c.Strategy = core.TrainClassifier }, "cannot run incrementally"},
		{"level -1", func(c *incremental.Config) { c.Level = -1 }, "level must be ≥ 0, got -1"},
		{"level -5", func(c *incremental.Config) { c.Level = -5 }, "level must be ≥ 0, got -5"},
	} {
		cfg := incrementalConfig(w, 0)
		tc.set(&cfg)
		if _, err := incremental.New(schema, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a refusal mentioning %q", tc.name, err, tc.want)
		}
	}
	eng, err := incremental.New(schema, incrementalConfig(w, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Append(0, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := eng.Append(2, w.Alice.Records()); err == nil {
		t.Error("out-of-range side accepted")
	}
	ded := incrementalConfig(w, 0)
	ded.Dedup = true
	deng, err := incremental.New(schema, ded)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deng.Append(1, w.Alice.Records()); err == nil {
		t.Error("dedup engine accepted side 1")
	}
}

// purchaseLog is what the comparators of one engine were asked, across
// every batch's build.
type purchaseLog struct {
	builds  int
	single  [][2]int   // pairs that arrived through Compare
	batches [][][2]int // lists that arrived through CompareBatch
}

// logged is the plaintext oracle, logged.
type logged struct {
	smc.Comparator
	log *purchaseLog
}

func (c logged) Compare(i, j int) (bool, error) {
	c.log.single = append(c.log.single, [2]int{i, j})
	return c.Comparator.Compare(i, j)
}

func (c logged) CompareBatch(pairs [][2]int) ([]bool, error) {
	c.log.batches = append(c.log.batches, append([][2]int(nil), pairs...))
	return c.Comparator.CompareBatch(pairs)
}

func (l *purchaseLog) factory(alice, bob [][]int64, spec *smc.Spec, workers int) (smc.Comparator, error) {
	l.builds++
	plain, err := core.PlainComparatorFactory(alice, bob, spec, workers)
	return logged{plain, l}, err
}

// TestIncrementalBuysThroughBatchPath: the comparator is handed the walk
// in CompareBatch lists — the pairs the sink is delivered, in its order,
// none through Compare — and a committed replay builds no comparator at
// all. The engine's groups are A × B, so on an alice-side batch (a new
// record against a resident bin) the kernel's purchases reach the engine's
// sink as row spans, not pair by pair.
func TestIncrementalBuysThroughBatchPath(t *testing.T) {
	w := testkit.Generate(5)
	dir := t.TempDir()
	type batch struct {
		side int
		recs []dataset.Record
	}
	var feed []batch
	for _, b := range batchesOf(w.Bob, w.Bob.Len()/2+1) {
		feed = append(feed, batch{1, b})
	}
	for _, b := range batchesOf(w.Alice, w.Alice.Len()/3+1) {
		feed = append(feed, batch{0, b})
	}
	// longest[s] is the longest purchased span the sink saw in side s's
	// batches; delivered is every purchased pair, in the sink's order.
	var longest [2]int
	var delivered [][2]int
	run := func(log *purchaseLog, resume bool) ([][]incremental.Delta, incremental.Stats, []byte) {
		t.Helper()
		path := filepath.Join(dir, "batch.wal")
		jw, err := journal.Open(path, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := incrementalConfig(w, ample)
		cfg.Comparator = log.factory
		cfg.Journal = jw
		if resume {
			cfg.Recovered = jw.Recovered()
		}
		eng, err := incremental.New(w.Alice.Schema(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		side := 0
		longest, delivered = [2]int{}, nil
		eng.ObserveEvents(func(ev resolve.Event) {
			if ev.Kind == resolve.Purchased {
				longest[side] = max(longest[side], len(ev.Js))
				for x := range ev.Js {
					i, j := ev.Pair(x)
					delivered = append(delivered, [2]int{i, j})
				}
			}
		})
		var deltas [][]incremental.Delta
		for _, b := range feed {
			side = b.side
			res, err := eng.Append(b.side, b.recs)
			if err != nil {
				t.Fatal(err)
			}
			deltas = append(deltas, res.Deltas)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return deltas, eng.Stats(), raw
	}

	var first, replay purchaseLog
	wantDeltas, wantStats, wantWAL := run(&first, false)
	if longest[0] < 2 {
		t.Errorf("the longest span the sink was handed in an alice-side batch is %d pairs (bob-side: %d); want a row of a resident bin", longest[0], longest[1])
	}
	if wantStats.Purchased == 0 || len(delivered) != int(wantStats.Purchased) {
		t.Fatalf("fixture: %d purchases, %d delivered", wantStats.Purchased, len(delivered))
	}
	if len(first.single) != 0 {
		t.Errorf("%d pairs reached the comparator through Compare", len(first.single))
	}
	var flat [][2]int
	for _, list := range first.batches {
		flat = append(flat, list...)
	}
	if !reflect.DeepEqual(flat, delivered) {
		t.Errorf("CompareBatch lists carry %d pairs, not the %d-pair walk the sink was delivered in order", len(flat), len(delivered))
	}

	replayDeltas, replayStats, replayWAL := run(&replay, true)
	if replay.builds != 0 || len(replay.single)+len(replay.batches) != 0 {
		t.Errorf("committed replay built %d comparators and asked them %d times", replay.builds, len(replay.single)+len(replay.batches))
	}
	if replayStats.Purchased != 0 || replayStats.Replayed != wantStats.Purchased {
		t.Errorf("committed replay purchased %d and replayed %d, want 0 and %d", replayStats.Purchased, replayStats.Replayed, wantStats.Purchased)
	}
	if !reflect.DeepEqual(replayDeltas, wantDeltas) || !bytes.Equal(replayWAL, wantWAL) {
		t.Error("committed replay changed the delta stream or the journal")
	}
}

// TestSpansAreNewRecords: on either side a purchased span is one record
// the batch appended against members of its resident bin — a row span on
// an alice-side batch, a column span on a bob-side one — and both sides'
// spans are longer than one pair.
func TestSpansAreNewRecords(t *testing.T) {
	w := testkit.Generate(5)
	eng, err := incremental.New(w.Alice.Schema(), incrementalConfig(w, ample))
	if err != nil {
		t.Fatal(err)
	}
	var side, base int
	var longest [2]int
	eng.ObserveEvents(func(ev resolve.Event) {
		if ev.Kind != resolve.Purchased {
			return
		}
		if ev.Column != (side == 1) || ev.I < base {
			t.Fatalf("side %d batch from record %d: span %+v is not a new record's", side, base, ev)
		}
		longest[side] = max(longest[side], len(ev.Js))
	})
	var grown [2]int
	ab, bb := batchesOf(w.Alice, w.Alice.Len()/3+1), batchesOf(w.Bob, w.Bob.Len()/3+1)
	for k := range max(len(ab), len(bb)) {
		for s, batches := range [][][]dataset.Record{ab, bb} {
			if k < len(batches) {
				side, base = s, grown[s]
				if _, err := eng.Append(s, batches[k]); err != nil {
					t.Fatal(err)
				}
				grown[s] += len(batches[k])
			}
		}
	}
	if longest[0] < 2 || longest[1] < 2 {
		t.Errorf("longest purchased spans: %d pairs on alice-side batches, %d on bob-side ones; want both ≥ 2", longest[0], longest[1])
	}
}

// TestDeltaIDsAndLog: every delta's entity IDs are its records' — across
// both sides and for dedup, where both are side 0's — and each batch's
// deltas are a capped window of the log, so no append through one batch's
// slice reaches the next batch's deltas.
func TestDeltaIDsAndLog(t *testing.T) {
	w := testkit.Generate(3)
	all, err := w.Alice.Concat(w.Bob)
	if err != nil {
		t.Fatal(err)
	}
	for _, dedup := range []bool{false, true} {
		cfg := incrementalConfig(w, ample)
		cfg.Dedup = dedup
		eng, err := incremental.New(w.Alice.Schema(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		type batch struct {
			side int
			recs []dataset.Record
		}
		var feed []batch
		grown := [2]*dataset.Dataset{dataset.New(w.Alice.Schema()), dataset.New(w.Alice.Schema())}
		if dedup {
			for _, b := range batchesOf(all, all.Len()/4+1) {
				feed = append(feed, batch{0, b})
			}
			grown[1] = grown[0]
		} else {
			ab, bb := batchesOf(w.Alice, w.Alice.Len()/3+1), batchesOf(w.Bob, w.Bob.Len()/3+1)
			for k := range ab {
				feed = append(feed, batch{0, ab[k]}, batch{1, bb[k]})
			}
		}
		var logged [][]incremental.Delta
		n := 0
		for _, b := range feed {
			for _, rec := range b.recs {
				if err := grown[b.side].Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			res, err := eng.Append(b.side, b.recs)
			if err != nil {
				t.Fatal(err)
			}
			if cap(res.Deltas) != len(res.Deltas) {
				t.Fatalf("dedup %v: batch %d's deltas have room for %d more", dedup, res.Batch, cap(res.Deltas)-len(res.Deltas))
			}
			for _, d := range res.Deltas {
				if d.AliceID != grown[0].Record(d.I).EntityID || d.BobID != grown[1].Record(d.J).EntityID {
					t.Fatalf("dedup %v: delta %+v carries IDs other than its records' (%d, %d)",
						dedup, d, grown[0].Record(d.I).EntityID, grown[1].Record(d.J).EntityID)
				}
			}
			logged = append(logged, slices.Clone(res.Deltas))
			n += len(res.Deltas)
			_ = append(res.Deltas, incremental.Delta{Batch: -1}) // a consumer's append
		}
		if n == 0 {
			t.Fatalf("dedup %v: the fixture emits no delta", dedup)
		}
		next, batches := eng.Deltas(0)
		if next != len(feed) || !reflect.DeepEqual(batches, logged) {
			t.Errorf("dedup %v: the log reads back other deltas than the batches returned", dedup)
		}
		for _, b := range batches {
			if cap(b) != len(b) {
				t.Errorf("dedup %v: a page's batch slice has room for %d more", dedup, cap(b)-len(b))
			}
		}
	}
}

// counted is a comparator factory that counts what it builds and closes;
// with hide set, what it builds cannot Grow, as the secure comparator
// cannot.
type counted struct {
	hide           bool
	builds, closes int
}

type opaque struct {
	smc.Comparator
	closes *int
}

func (c opaque) Close() error {
	*c.closes++
	return c.Comparator.Close()
}

func (c *counted) factory(alice, bob [][]int64, spec *smc.Spec, workers int) (smc.Comparator, error) {
	c.builds++
	plain, err := core.PlainComparatorFactory(alice, bob, spec, workers)
	if c.hide {
		return opaque{plain, &c.closes}, err
	}
	return plain, err
}

// forgetful journals batch marks and commits but no purchase, so a
// committed frame lacks every pair its batch bought.
type forgetful struct{ *journal.Writer }

func (forgetful) Record(i, j int, matched bool) error { return nil }

// TestIncrementalComparatorBuilds counts the factory's builds. The default
// oracle can Grow: one engine builds it once, at its first purchase, and
// grows it at every later one. A comparator that cannot is built for each
// batch that buys and closed with it. Both emit the same deltas. A
// committed batch whose frame lacks a purchase refuses to buy before
// either path builds anything.
func TestIncrementalComparatorBuilds(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		w := testkit.Generate(seed)
		type batch struct {
			side int
			recs []dataset.Record
		}
		var feed []batch
		bb := batchesOf(w.Bob, w.Bob.Len()/2+1)
		for x, a := range batchesOf(w.Alice, w.Alice.Len()/3+1) {
			if feed = append(feed, batch{0, a}); x < len(bb) {
				feed = append(feed, batch{1, bb[x]})
			}
		}
		run := func(c *counted, sink journal.BatchSink, recovered *journal.Recovered) ([][]incremental.Delta, int, error) {
			cfg := incrementalConfig(w, ample)
			cfg.Comparator, cfg.Journal, cfg.Recovered = c.factory, sink, recovered
			eng, err := incremental.New(w.Alice.Schema(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var deltas [][]incremental.Delta
			buying := 0
			for _, b := range feed {
				res, err := eng.Append(b.side, b.recs)
				if err != nil {
					return deltas, buying, err
				}
				deltas = append(deltas, res.Deltas)
				if res.Spent > 0 {
					buying++
				}
			}
			return deltas, buying, nil
		}

		kept, fresh := &counted{}, &counted{hide: true}
		keptDeltas, buying, err := run(kept, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		freshDeltas, _, err := run(fresh, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if buying < 2 {
			t.Fatalf("world %d: %d batches bought; the fixture grows no comparator", seed, buying)
		}
		if kept.builds != 1 || kept.closes != 0 {
			t.Errorf("world %d: the oracle was built %d times for %d buying batches; want once per engine", seed, kept.builds, buying)
		}
		if fresh.builds != buying || fresh.closes != buying {
			t.Errorf("world %d: a comparator without Grow was built %d and closed %d times for %d buying batches", seed, fresh.builds, fresh.closes, buying)
		}
		if !reflect.DeepEqual(keptDeltas, freshDeltas) {
			t.Errorf("world %d: the kept oracle's deltas differ from a comparator built per batch", seed)
		}

		for _, c := range []*counted{{}, {hide: true}} {
			path := filepath.Join(t.TempDir(), "live.wal")
			jw, err := journal.Create(path, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := run(&counted{hide: c.hide}, forgetful{jw}, nil); err != nil {
				t.Fatal(err)
			}
			if err := jw.Close(); err != nil {
				t.Fatal(err)
			}
			jw2, err := journal.Resume(path, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = run(c, jw2, jw2.Recovered())
			jw2.Close()
			if err == nil || !strings.Contains(err.Error(), "needs a fresh purchase") || c.builds != 0 {
				t.Errorf("world %d, hide %v: a committed frame missing its purchases replayed with error %v after %d builds; want a refusal before any build", seed, c.hide, err, c.builds)
			}
		}
	}
}

// TestIncrementalSecureRefusesOutOfDomainAppend: a live dataset's slot
// width comes from the schema like a frozen run's, and the holders' bound
// check runs over every row the batch's comparator is built on — the ones
// just appended included. A record outside its attribute's published
// domain is refused before anything is encrypted; in-domain batches before
// it buy their comparisons packed. A continuous value the circuit would
// round (40.5 at Scale 1) is refused before the batch is journaled.
func TestIncrementalSecureRefusesOutOfDomainAppend(t *testing.T) {
	alice, bob := dataset.SplitOverlap(adult.Generate(60, 31), rand.New(rand.NewSource(32)))
	age, _ := alice.Schema().Index(adult.AttrAge)
	half := bob.Len() / 2
	for _, row := range []struct {
		age  float64
		want string
	}{
		{500, "published domain"}, // the hierarchy ends at 81
		{40.5, `attribute "age" value 40.5 is not a whole multiple`},
	} {
		eng, err := incremental.New(alice.Schema(), incremental.Config{
			QIDs:       adult.DefaultQIDs(),
			Theta:      0.05,
			Allowance:  ample,
			Strategy:   core.MaximizePrecision,
			Comparator: core.SecureComparatorFactory(256),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Append(0, alice.Records()); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Append(1, bob.Records()[:half]); err != nil {
			t.Fatal(err)
		}
		if eng.Stats().Purchased == 0 {
			t.Fatal("the in-domain batches bought nothing; the fixture exercises no comparator")
		}
		rest := append([]dataset.Record(nil), bob.Records()[half:]...)
		rest[1].Cells = append([]dataset.Cell(nil), rest[1].Cells...)
		rest[1].Cells[age] = dataset.NumCell(row.age)
		_, err = eng.Append(1, rest)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("bob: record %d", half+1)) || !strings.Contains(err.Error(), row.want) {
			t.Errorf("appending a record of age %v: error %v, want a refusal naming bob's record %d", row.age, err, half+1)
		}
	}
}
