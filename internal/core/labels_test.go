package core

import (
	"math/rand"
	"runtime"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/heuristic"
)

// randomClasses partitions n records into classes of random sizes — one,
// a few, and more than one and two machine words' worth — in shuffled
// record order, so member positions differ from record indices.
func randomClasses(rng *rand.Rand, n int) *anonymize.Result {
	v := &anonymize.Result{ClassOf: make([]int, n)}
	perm := rng.Perm(n)
	for len(perm) > 0 {
		size := []int{1, 2, 3, 9, 70, 130}[rng.Intn(6)]
		if size > len(perm) {
			size = len(perm)
		}
		for _, m := range perm[:size] {
			v.ClassOf[m] = len(v.Classes)
		}
		v.Classes = append(v.Classes, anonymize.Class{Members: perm[:size]})
		perm = perm[size:]
	}
	return v
}

// TestLabelStoreMatchesReferenceMap files random event streams — group-
// major row spans as the kernel delivers them, jumps to arbitrary class
// pairs as unmet journaled purchases do, repeated pairs, both verdicts —
// into a store and into a per-pair map: every get, every per-group count
// and the totals must agree. Rows of up to 130 pairs give spans of more
// than a word and spans across word boundaries, and a closing pass
// overwrites filed spans Match → NonMatch and back; the totals are
// checked after every span.
func TestLabelStoreMatchesReferenceMap(t *testing.T) {
	var straddling, long int // spans across a word boundary, and of more than a word
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nA, nB := 1+rng.Intn(300), 1+rng.Intn(300)
		block := &blocking.Result{R: randomClasses(rng, nA), S: randomClasses(rng, nB)}
		store := newLabelStore(block, memberPositions(block.R), memberPositions(block.S))
		ref := make(map[[2]int]bool)
		var refMatched int64
		file := func(i int, js []int, verdicts []bool) {
			t.Helper()
			store.setSpan(i, js, verdicts)
			cols := block.S.Classes[block.S.ClassOf[js[0]]].Size()
			if bit := int(store.posA[i])*cols + int(store.posB[js[0]]); bit/64 != (bit+len(js)-1)/64 {
				straddling++
			}
			if len(js) > 64 {
				long++
			}
			for x, j := range js {
				if ref[[2]int{i, j}] {
					refMatched--
				}
				if ref[[2]int{i, j}] = verdicts[x]; verdicts[x] {
					refMatched++
				}
			}
			if store.n != int64(len(ref)) || store.matched != refMatched {
				t.Fatalf("seed %d: after a span of %d, totals %d labeled / %d matched; reference %d / %d", seed, len(js), store.n, store.matched, len(ref), refMatched)
			}
		}
		for step := 0; step < 300; step++ {
			a := block.R.Classes[rng.Intn(len(block.R.Classes))].Members
			b := block.S.Classes[rng.Intn(len(block.S.Classes))].Members
			if rng.Intn(3) == 0 {
				// One stray pair, as a Group −1 replay lands.
				file(a[rng.Intn(len(a))], []int{b[rng.Intn(len(b))]}, []bool{rng.Intn(2) == 0})
				continue
			}
			// A row-major walk of part of the group in spans of random
			// length, some stretches skipped.
			stop := rng.Intn(len(a)*len(b) + 1)
			for n, i := range a {
				for m := 0; m < len(b) && n*len(b)+m < stop; {
					span := 1 + rng.Intn(min(len(b)-m, stop-n*len(b)-m))
					if rng.Intn(4) != 0 {
						verdicts := make([]bool, span)
						for x := range verdicts {
							verdicts[x] = rng.Intn(3) == 0
						}
						file(i, b[m:m+span], verdicts)
					}
					m += span
				}
			}
		}
		// Overwrites: a stretch of one row filed all Match, a stretch
		// overlapping it all NonMatch, then mixed verdicts over both.
		for step := 0; step < 50; step++ {
			a := block.R.Classes[rng.Intn(len(block.R.Classes))].Members
			b := block.S.Classes[rng.Intn(len(block.S.Classes))].Members
			i := a[rng.Intn(len(a))]
			for _, fill := range []int{1, 0, 2} {
				lo := rng.Intn(len(b))
				hi := lo + 1 + rng.Intn(len(b)-lo)
				verdicts := make([]bool, hi-lo)
				for x := range verdicts {
					verdicts[x] = fill == 1 || fill == 2 && rng.Intn(2) == 0
				}
				file(i, b[lo:hi], verdicts)
			}
		}

		var matched int64
		type tally struct{ labeled, matched int }
		groups := make(map[[2]int]tally)
		for i := 0; i < nA; i++ {
			for j := 0; j < nB; j++ {
				want, wantOK := ref[[2]int{i, j}]
				got, ok := store.get(i, j)
				if ok != wantOK || got != want {
					t.Fatalf("seed %d: get(%d,%d) = %v,%v; reference %v,%v", seed, i, j, got, ok, want, wantOK)
				}
				if ok {
					key := [2]int{block.R.ClassOf[i], block.S.ClassOf[j]}
					g := groups[key]
					g.labeled++
					if got {
						g.matched++
						matched++
					}
					groups[key] = g
				}
			}
		}
		if store.n != int64(len(ref)) || store.matched != matched {
			t.Fatalf("seed %d: totals %d labeled / %d matched; reference %d / %d", seed, store.n, store.matched, len(ref), matched)
		}
		for ri := range block.R.Classes {
			for si := range block.S.Classes {
				labeled, m := store.group(ri, si).counts()
				if want := groups[[2]int{ri, si}]; labeled != want.labeled || m != want.matched {
					t.Fatalf("seed %d: group (%d,%d) counts %d/%d; reference %d/%d", seed, ri, si, labeled, m, want.labeled, want.matched)
				}
			}
		}
	}
	if straddling == 0 || long == 0 {
		t.Errorf("%d spans crossed a word boundary and %d were longer than a word: the streams miss a case", straddling, long)
	}
}

// paperShaped is the paper's Section VI configuration scaled down: Adult
// records, five QIDs, k = 32, 1.5 % allowance, plaintext oracle.
func paperShaped(tb testing.TB, records int) (alice, bob Holder, cfg Config) {
	tb.Helper()
	a, b := workload(tb, records, 7)
	cfg = DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 32, 32
	cfg.AllowanceFraction = 0.015
	return Holder{Data: a}, Holder{Data: b}, cfg
}

// TestLabelStoreMemoryBound pins the store's footprint after a
// paper-shaped link: two bits per pair of the class pairs that received a
// label (rounded up to words, plus a fixed header each) and two int32 per
// record — nothing proportional to the allowance or to the pair space.
func TestLabelStoreMemoryBound(t *testing.T) {
	alice, bob, cfg := paperShaped(t, 3000)
	res, err := Link(alice, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invocations == 0 {
		t.Fatal("no purchases: the bound would be vacuous")
	}
	store := res.purchased
	var bitBytes, touchedPairs, labeled int64
	for key, g := range store.groups {
		bitBytes += int64(8 * (len(g.known) + len(g.matched)))
		touchedPairs += int64(res.Block.R.Classes[key[0]].Size()) * int64(res.Block.S.Classes[key[1]].Size())
		labeled += int64(g.n)
	}
	if labeled != res.Invocations || store.n != res.Invocations {
		t.Fatalf("store holds %d labels in groups, %d in total; %d purchased", labeled, store.n, res.Invocations)
	}
	const perGroup = 16 // two words of rounding
	if limit := touchedPairs/4 + perGroup*int64(len(store.groups)); bitBytes > limit {
		t.Errorf("bitsets take %d bytes for %d pairs in %d touched groups; limit %d", bitBytes, touchedPairs, len(store.groups), limit)
	}
	if int64(len(store.groups)) > res.Block.UnknownGroups {
		t.Errorf("%d groups allocated, only %d Unknown class pairs exist", len(store.groups), res.Block.UnknownGroups)
	}
	if got, want := len(store.posA)+len(store.posB), len(res.Block.R.ClassOf)+len(res.Block.S.ClassOf); got != want {
		t.Errorf("position tables hold %d entries for %d records", got, want)
	}
	if len(res.tiered.groups) != 0 {
		t.Errorf("tier off, yet the tier store allocated %d groups", len(res.tiered.groups))
	}
}

// BenchmarkLinkPlain is the whole non-cryptographic pipeline at the
// paper's shape — anonymize, block, order, resolve through the plaintext
// oracle, file every verdict — so the label store's per-pair cost stays
// visible: pairs/s over the purchases, B/pair allocated per purchase.
func BenchmarkLinkPlain(b *testing.B) {
	alice, bob, cfg := paperShaped(b, 3000)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	var purchased int64
	for n := 0; n < b.N; n++ {
		res, err := Link(alice, bob, cfg)
		if err != nil {
			b.Fatal(err)
		}
		purchased += res.Invocations
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(purchased)/b.Elapsed().Seconds(), "pairs/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(purchased), "B/pair")
}

// spanEvent is one span the resolve kernel hands the store.
type spanEvent struct {
	i        int
	js       []int
	verdicts []bool
}

// purchaseSpans replays a paper-shaped link's purchases as the kernel
// delivers them: the ordered Unknown groups row by row, one span per
// class-pair row, cut where the allowance runs out, with the link's own
// verdicts.
func purchaseSpans(tb testing.TB) (*Result, []spanEvent) {
	tb.Helper()
	alice, bob, cfg := paperShaped(tb, 3000)
	res, err := Link(alice, bob, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var events []spanEvent
	left := res.Invocations
	for _, gp := range heuristic.Order(res.Block, res.Rule(), res.cfg.Heuristic, false) {
		b := res.Block.S.Classes[gp.SI].Members
		for _, i := range res.Block.R.Classes[gp.RI].Members {
			if left == 0 {
				return res, events
			}
			ev := spanEvent{i: i, js: b[:min(int64(len(b)), left)]}
			for _, j := range ev.js {
				matched, _ := res.purchased.get(i, j)
				ev.verdicts = append(ev.verdicts, matched)
			}
			events = append(events, ev)
			left -= int64(len(ev.js))
		}
	}
	return res, events
}

// TestSetSpanAllocatesNothing: filing into a group that exists allocates
// nothing per span.
func TestSetSpanAllocatesNothing(t *testing.T) {
	res, events := purchaseSpans(t)
	store := newLabelStore(res.Block, memberPositions(res.Block.R), memberPositions(res.Block.S))
	for _, ev := range events {
		store.setSpan(ev.i, ev.js, ev.verdicts)
	}
	x := 0
	if n := testing.AllocsPerRun(1000, func() {
		ev := events[x%len(events)]
		store.setSpan(ev.i, ev.js, ev.verdicts)
		x++
	}); n != 0 {
		t.Errorf("setSpan allocates %v times per span", n)
	}
}

// BenchmarkLabelStoreSetSpan files a paper-shaped link's purchases, span
// by span in walk order, into a fresh store: ns/pair, the groups' bitsets
// included.
func BenchmarkLabelStoreSetSpan(b *testing.B) {
	res, events := purchaseSpans(b)
	posA, posB := memberPositions(res.Block.R), memberPositions(res.Block.S)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		store := newLabelStore(res.Block, posA, posB)
		for _, ev := range events {
			store.setSpan(ev.i, ev.js, ev.verdicts)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Invocations), "ns/pair")
}
