package testkit

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"pprl/internal/blocking"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/incremental"
	"pprl/internal/journal"
	"pprl/internal/oracle"
)

// incrementalAmple is an allowance no generated world can exhaust.
const incrementalAmple = int64(1) << 40

// incStep is one append of a world's replayable batch sequence.
type incStep struct {
	side int
	recs []dataset.Record
}

// incrementalSteps cuts a world's relations into an interleaved
// append-only schedule: bob lands first in two batches, alice follows in
// three, so the matrix exercises both sides growing and consecutive
// same-side appends.
func incrementalSteps(w *World) []incStep {
	var steps []incStep
	half := w.Bob.Len()/2 + 1
	for _, b := range splitRecords(w.Bob.Records(), half) {
		steps = append(steps, incStep{side: 1, recs: b})
	}
	third := w.Alice.Len()/3 + 1
	for _, b := range splitRecords(w.Alice.Records(), third) {
		steps = append(steps, incStep{side: 0, recs: b})
	}
	return steps
}

func splitRecords(recs []dataset.Record, n int) [][]dataset.Record {
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

// incrementalConfigFor derives the incremental config a world's pipeline
// corresponds to (fixed-level binning replaces the per-holder
// anonymizers; everything else carries over).
func incrementalConfigFor(w *World) incremental.Config {
	return incremental.Config{
		QIDs:       w.Alice.Schema().Names(),
		Theta:      w.Cfg.Theta,
		Thresholds: w.Cfg.Thresholds,
		Heuristic:  w.Cfg.Heuristic,
		Allowance:  incrementalAmple,
	}
}

// runSteps drives an engine through a step schedule, returning the
// exposed delta pairs (skipping batches the engine reports as replayed —
// their deltas were exposed before the crash) and the per-batch results.
func runSteps(t testing.TB, eng *incremental.Engine, steps []incStep) ([][2]int, []*incremental.BatchResult) {
	t.Helper()
	var exposed [][2]int
	var results []*incremental.BatchResult
	for _, s := range steps {
		res, err := eng.Append(s.side, s.recs)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		if !res.Replayed {
			for _, d := range res.Deltas {
				exposed = append(exposed, [2]int{d.I, d.J})
			}
		}
	}
	return exposed, results
}

// TestIncrementalCrashMatrix is the live crash matrix's tier-retune arm:
// on eight worlds, in both directions, a binding pool crashed with the tail
// batch journaled but uncommitted resumes with the tier switched. Kills at
// verdict boundaries in the plain, tier and DP modes, the torn tail among
// them, are TestConformance's crash column.
func TestIncrementalCrashMatrix(t *testing.T) {
	seed := baseSeed(t)
	for n := 0; n < min(worldCount(t), 8); n++ {
		w := Generate(seed + int64(n))
		tierRetuneArm(t, w, incrementalSteps(w))
	}
}

// firstFrameCrash kills the run at the commit barrier of the first batch
// that journaled anything: every earlier batch had no candidate pairs, so
// the resumed run may flip the tier without a committed batch needing a
// purchase it never made.
type firstFrameCrash struct {
	*journal.Writer
	journaled bool
}

func (c *firstFrameCrash) Record(i, j int, matched bool) error {
	c.journaled = true
	return c.Writer.Record(i, j, matched)
}

func (c *firstFrameCrash) RecordTier(i, j int, matched bool) error {
	c.journaled = true
	return c.Writer.RecordTier(i, j, matched)
}

func (c *firstFrameCrash) RecordBatchCommit(b journal.BatchCommit) error {
	if c.journaled {
		return ErrCrash
	}
	return c.Writer.RecordBatchCommit(b)
}

// tierRetuneArm is the crash matrix's tier-retune arm: under a binding
// pool, crash with the tail batch's verdicts journaled but uncommitted,
// then resume with the tier switched the other way (the journal manifest
// allows it). The resumed walk differs from the one that bought the
// journaled verdicts, and still every one of them must be replayed exactly
// once, charged before anything new is bought, and the pool never
// overdrawn.
func tierRetuneArm(t *testing.T, w *World, steps []incStep) {
	t.Helper()
	for _, first := range []core.TierMode{core.TierBloom, core.TierOff} {
		second := core.TierBloom
		if first == core.TierBloom {
			second = core.TierOff
		}
		name := fmt.Sprintf("world=%d tier %v→%v", w.Seed, first, second)
		icfg := incrementalConfigFor(w)
		icfg.Tier = first
		free, err := incremental.New(w.Alice.Schema(), icfg)
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		runSteps(t, free, steps)
		if icfg.Allowance = free.Stats().Purchased / 2; icfg.Allowance < 2 {
			continue
		}

		path := filepath.Join(t.TempDir(), "retune.wal")
		wr, err := journal.Create(path, journal.Options{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg1 := icfg
		cfg1.Journal = &firstFrameCrash{Writer: wr}
		eng1, err := incremental.New(w.Alice.Schema(), cfg1)
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		crashed := false
		for _, s := range steps {
			if _, err := eng1.Append(s.side, s.recs); err != nil {
				if !errors.Is(err, ErrCrash) {
					t.Fatalf("%s: append failed with %v, want ErrCrash", name, err)
				}
				crashed = true
				break
			}
		}
		if err := wr.Close(); err != nil {
			t.Fatal(err)
		}
		if !crashed {
			continue // no batch had a candidate pair
		}

		rw, err := journal.Resume(path, journal.Options{SyncEvery: 1})
		if err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		cfg2 := icfg
		cfg2.Tier = second
		cfg2.Journal = rw
		cfg2.Recovered = rw.Recovered()
		eng2, err := incremental.New(w.Alice.Schema(), cfg2)
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		exposed, _ := runSteps(t, eng2, steps)
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		seen := make(map[[2]int]bool, len(exposed))
		for _, p := range exposed {
			if seen[p] {
				t.Fatal(repro(t, w, fmt.Errorf("%s: pair (%d,%d) exposed twice", name, p[0], p[1])))
			}
			seen[p] = true
		}
		st := eng2.Stats()
		if st.Used > icfg.Allowance {
			t.Fatal(repro(t, w, fmt.Errorf("%s: pool overdrawn: used %d of %d", name, st.Used, icfg.Allowance)))
		}
		if st.Purchased+st.Replayed != st.Used {
			t.Fatal(repro(t, w, fmt.Errorf("%s: purchased %d + replayed %d ≠ used %d", name, st.Purchased, st.Replayed, st.Used)))
		}
		if journaled := int64(len(cfg2.Recovered.Verdicts)); st.Replayed != journaled {
			t.Fatal(repro(t, w, fmt.Errorf("%s: replayed %d of %d journaled purchases", name, st.Replayed, journaled)))
		}
	}
}

// TestIncrementalDedupOracle checks the dedup mode against the exact
// rule via the oracle over a relation linked with itself.
func TestIncrementalDedupOracle(t *testing.T) {
	seed := baseSeed(t)
	for n := 0; n < 5; n++ {
		w := Generate(seed + int64(n))
		d, err := w.Alice.Concat(w.Bob)
		if err != nil {
			t.Fatal(err)
		}
		cfg := incrementalConfigFor(w)
		cfg.Dedup = true
		eng, err := incremental.New(d.Schema(), cfg)
		if err != nil {
			t.Fatal(repro(t, w, err))
		}
		var exposed [][2]int
		for _, b := range splitRecords(d.Records(), d.Len()/4+1) {
			res, err := eng.Append(0, b)
			if err != nil {
				t.Fatal(repro(t, w, err))
			}
			for _, dd := range res.Deltas {
				exposed = append(exposed, [2]int{dd.I, dd.J})
			}
		}
		qids, err := d.Schema().Resolve(d.Schema().Names())
		if err != nil {
			t.Fatal(err)
		}
		rule := mustWorldRule(t, w, d)
		orcl, err := oracle.New(d, d, qids, rule)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.CheckDedupDeltas(exposed, orcl); err != nil {
			t.Fatal(repro(t, w, err))
		}
	}
}

func mustWorldRule(t testing.TB, w *World, d *dataset.Dataset) *blocking.Rule {
	t.Helper()
	qids, err := d.Schema().Resolve(d.Schema().Names())
	if err != nil {
		t.Fatal(err)
	}
	var rule *blocking.Rule
	if len(w.Cfg.Thresholds) > 0 {
		rule, err = blocking.NewRule(distance.MetricsFor(d.Schema(), qids), w.Cfg.Thresholds)
	} else {
		rule, err = blocking.RuleFor(d.Schema(), qids, w.Cfg.Theta)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rule
}
