package index_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/dpblock"
	"pprl/internal/index"
	"pprl/internal/testkit"
	"pprl/internal/vgh"
)

// TestLiveIndexSoundness grows a live index one bin at a time and checks
// the exclusion contract Block relies on: a bin the admission sets drop
// is always one the rule labels NonMatch, at every prefix of the
// insertion order, so candidate generation over a growing population
// never loses a Match or Unknown pair.
func TestLiveIndexSoundness(t *testing.T) {
	av, bv, rule := fixture(t, 900, 3, 0.05)
	live := index.NewLive(rule)

	check := func(prefix int) {
		for ri := range av.Classes {
			admitted := make(map[int]bool)
			live.Candidates(av.Classes[ri].Sequence, func(si int) { admitted[si] = true })
			for si := 0; si < prefix; si++ {
				l := rule.Decide(av.Classes[ri].Sequence, bv.Classes[si].Sequence)
				if l != blocking.NonMatch && !admitted[si] {
					t.Fatalf("prefix %d: bin %d excluded for query class %d but rule says %v", prefix, si, ri, l)
				}
			}
		}
	}

	for si := range bv.Classes {
		id, err := live.Insert(bv.Classes[si].Sequence)
		if err != nil {
			t.Fatal(err)
		}
		if id != si {
			t.Fatalf("insert %d assigned id %d", si, id)
		}
		// Checking every prefix is quadratic in classes; probe a spread.
		if si < 3 || si == len(bv.Classes)/2 {
			check(si + 1)
		}
	}
	check(len(bv.Classes))
}

// TestLiveIndexMatchesStaticAdmission pins a live index filled through the
// public Insert/Candidates surface to the exhaustive scan over the same
// static views: every class pair the dense scan labels Match or Unknown
// must be emitted, and labeled the same by the rule.
func TestLiveIndexMatchesStaticAdmission(t *testing.T) {
	av, bv, rule := fixture(t, 700, 4, 0.05)
	dense, err := blocking.Block(av, bv, rule)
	if err != nil {
		t.Fatal(err)
	}
	live := index.NewLive(rule)
	for si := range bv.Classes {
		if _, err := live.Insert(bv.Classes[si].Sequence); err != nil {
			t.Fatal(err)
		}
	}
	for ri := range av.Classes {
		got := make(map[int]blocking.Label)
		live.Candidates(av.Classes[ri].Sequence, func(si int) {
			got[si] = rule.Decide(av.Classes[ri].Sequence, bv.Classes[si].Sequence)
		})
		for si := range bv.Classes {
			want := dense.Label(ri, si)
			if want == blocking.NonMatch {
				continue // the index may or may not enumerate these
			}
			if got[si] != want {
				t.Fatalf("class pair (%d,%d): live label %v, dense %v", ri, si, got[si], want)
			}
		}
	}
}

// freshCandidates is the reference admission: what a live index filled
// from scratch over seqs, and asked nothing before, emits for probe.
func freshCandidates(t testing.TB, rule *blocking.Rule, seqs []vgh.Sequence, probe vgh.Sequence) []int {
	t.Helper()
	fresh := index.NewLive(rule)
	for _, seq := range seqs {
		if _, err := fresh.Insert(seq); err != nil {
			t.Fatal(err)
		}
	}
	return liveCandidates(fresh, probe)
}

// liveCandidates is what the live index emits for probe, in emit order.
func liveCandidates(live *index.Live, probe vgh.Sequence) []int {
	var got []int
	live.Candidates(probe, func(si int) { got = append(got, si) })
	return got
}

// checkAcrossEpochs inserts seqs one at a time and, after each insert,
// probes with the sequences probes(step) names — repeating values within
// the epoch and across epochs — comparing every emission, order included,
// with a live index filled from scratch over the inserted prefix.
func checkAcrossEpochs(t *testing.T, name string, rule *blocking.Rule, seqs []vgh.Sequence, probes func(step int) []vgh.Sequence) {
	t.Helper()
	live := index.NewLive(rule)
	for step, seq := range seqs {
		if _, err := live.Insert(seq); err != nil {
			t.Fatal(err)
		}
		for _, p := range probes(step) {
			got, want := liveCandidates(live, p), freshCandidates(t, rule, seqs[:step+1], p)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: after %d inserts the live index emits %v, a fresh index over them %v", name, step+1, got, want)
			}
		}
	}
}

// TestLiveCandidatesAcrossEpochs: with admission sets memoized per epoch,
// Candidates still emits exactly a fresh index's admission over the
// bins inserted so far, whatever was asked in earlier epochs — on Adult
// views, on generated worlds, and for a dedup index probed with its own
// side's sequences.
func TestLiveCandidatesAcrossEpochs(t *testing.T) {
	av, bv, rule := fixture(t, 700, 4, 0.05)
	seqsOf := func(v *anonymize.Result) []vgh.Sequence {
		out := make([]vgh.Sequence, len(v.Classes))
		for i := range v.Classes {
			out[i] = v.Classes[i].Sequence
		}
		return out
	}
	a, b := seqsOf(av), seqsOf(bv)
	// Two probes every epoch, two that move on, and the one asked twice.
	cross := func(q []vgh.Sequence) func(int) []vgh.Sequence {
		return func(step int) []vgh.Sequence {
			return []vgh.Sequence{q[0], q[len(q)/2], q[step%len(q)], q[(7*step)%len(q)], q[0]}
		}
	}
	checkAcrossEpochs(t, "adult", rule, b, cross(a))
	// Dedup: one side's index probed with its own sequences, the newest
	// among them.
	checkAcrossEpochs(t, "adult dedup", rule, a, func(step int) []vgh.Sequence {
		return []vgh.Sequence{a[step], a[step/2], a[0], a[step]}
	})

	for seed := int64(1); seed <= 12; seed++ {
		w := testkit.Generate(seed)
		schema := w.Alice.Schema()
		qids, err := schema.Resolve(w.Cfg.QIDs)
		if err != nil {
			t.Fatal(err)
		}
		var rule *blocking.Rule
		if w.Cfg.Thresholds != nil {
			rule, err = blocking.NewRule(distance.MetricsFor(schema, qids), w.Cfg.Thresholds)
		} else {
			rule, err = blocking.RuleFor(schema, qids, w.Cfg.Theta)
		}
		if err != nil {
			t.Fatal(err)
		}
		wa, err := w.Cfg.AliceAnonymizer.Anonymize(w.Alice, qids, w.Cfg.AliceK)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := w.Cfg.BobAnonymizer.Anonymize(w.Bob, qids, w.Cfg.BobK)
		if err != nil {
			t.Fatal(err)
		}
		a, b := seqsOf(wa), seqsOf(wb)
		checkAcrossEpochs(t, fmt.Sprintf("world %d", seed), rule, b, cross(a))
		checkAcrossEpochs(t, fmt.Sprintf("world %d dedup", seed), rule, a, func(step int) []vgh.Sequence {
			return []vgh.Sequence{a[step], a[0], a[step/2]}
		})
	}
}

// TestLiveCandidatesConcurrentReaders: four readers probe while one
// writer inserts (run it under -race). The writer publishes its insert
// count after each Insert, so a reader that reads the same count n before
// and after its call ran against n or n+1 bins, and must have been given
// a fresh index's admission over one of those prefixes.
func TestLiveCandidatesConcurrentReaders(t *testing.T) {
	av, bv, rule := fixture(t, 3000, 2, 0.05)
	live := index.NewLive(rule)
	type seen struct {
		bins  int
		probe int
		got   []int
	}
	var (
		wg       sync.WaitGroup
		started  sync.WaitGroup
		done     atomic.Bool
		inserted atomic.Int64
		views    [4][]seen
	)
	for r := range views {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			for x := 0; !done.Load(); x++ {
				p := (x*5 + r) % len(av.Classes)
				before := inserted.Load()
				got := liveCandidates(live, av.Classes[p].Sequence)
				if inserted.Load() == before {
					views[r] = append(views[r], seen{int(before), p, got})
				}
			}
		}()
	}
	started.Wait()
	var insertErr error
	for si := 0; si < len(bv.Classes) && insertErr == nil; si++ {
		_, insertErr = live.Insert(bv.Classes[si].Sequence)
		inserted.Store(int64(si + 1))
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()
	if insertErr != nil {
		t.Fatal(insertErr)
	}

	seqs := make([]vgh.Sequence, len(bv.Classes))
	for i := range seqs {
		seqs[i] = bv.Classes[i].Sequence
	}
	var all []seen
	for r := range views {
		all = append(all, views[r]...)
	}
	if len(all) == 0 {
		t.Fatal("no reader finished a probe between two inserts")
	}
	// The reference fills a fresh index per probe: check a spread.
	for x := 0; x < len(all); x += 1 + len(all)/500 {
		v := all[x]
		probe := av.Classes[v.probe].Sequence
		if slices.Equal(v.got, freshCandidates(t, rule, seqs[:v.bins], probe)) {
			continue
		}
		if n := min(v.bins+1, len(seqs)); !slices.Equal(v.got, freshCandidates(t, rule, seqs[:n], probe)) {
			t.Fatalf("after %d inserts: probe %d emitted %v, matching a fresh index over neither %d nor %d bins",
				v.bins, v.probe, v.got, v.bins, n)
		}
	}
}

// BenchmarkLiveCandidates is one live-ingest batch's probes: the distinct
// fixed-level bins of 240 new alice records probing bob's index of
// 12,000 records' bins, after the one insert that starts a new epoch.
func BenchmarkLiveCandidates(b *testing.B) {
	alice, bob := dataset.SplitOverlap(adult.Generate(48000, 13), rand.New(rand.NewSource(14)))
	qids, err := alice.Schema().Resolve(adult.DefaultQIDs())
	if err != nil {
		b.Fatal(err)
	}
	rule, err := blocking.RuleFor(alice.Schema(), qids, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	binner, err := dpblock.NewLevelBinner(dpblock.DefaultLevel)
	if err != nil {
		b.Fatal(err)
	}
	av, err := binner.Anonymize(alice, qids, 1)
	if err != nil {
		b.Fatal(err)
	}
	bv, err := binner.Anonymize(bob, qids, 1)
	if err != nil {
		b.Fatal(err)
	}
	live := index.NewLive(rule)
	inserted := make(map[string]bool)
	for i := 0; i < 12000; i++ {
		if seq := bv.SequenceOf(i); !inserted[seq.Key()] {
			inserted[seq.Key()] = true
			if _, err := live.Insert(seq); err != nil {
				b.Fatal(err)
			}
		}
	}
	const batch = 240
	var batches [][]vgh.Sequence
	for lo := 0; lo+batch <= 24000; lo += batch {
		var bins []vgh.Sequence
		touched := make(map[int]bool)
		for i := lo; i < lo+batch; i++ {
			if c := av.ClassOf[i]; !touched[c] {
				touched[c] = true
				bins = append(bins, av.Classes[c].Sequence)
			}
		}
		batches = append(batches, bins)
	}
	probes, hits := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		// The insert that starts the epoch: a bin bob's batch created.
		if _, err := live.Insert(bv.SequenceOf(12000 + n%12000)); err != nil {
			b.Fatal(err)
		}
		for _, seq := range batches[n%len(batches)] {
			live.Candidates(seq, func(int) { hits++ })
			probes++
		}
	}
	b.StopTimer()
	if hits == 0 {
		b.Fatal("no probe admitted a bin")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probes), "ns/probe")
}
