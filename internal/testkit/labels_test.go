package testkit

import (
	"errors"
	"fmt"
	"testing"

	"pprl/internal/core"
	"pprl/internal/journal"
)

// eventLog is an in-memory journal.Sink that doubles as the reference
// label store of the differential test below: one map entry per pair for
// the purchases (those Begin hands back plus every Record) and one for
// the tier's labels. Like CrashSink it dies once crashAfter purchases are
// recorded; a negative crashAfter never does.
type eventLog struct {
	journaled         []journal.Verdict
	purchased, tiered map[[2]int]bool
	order             []journal.Verdict // live purchases, as journaled
	crashAfter        int
}

func newEventLog(journaled []journal.Verdict, crashAfter int) *eventLog {
	l := &eventLog{journaled: journaled, purchased: map[[2]int]bool{}, tiered: map[[2]int]bool{}, crashAfter: crashAfter}
	for _, v := range journaled {
		l.purchased[[2]int{int(v.I), int(v.J)}] = v.Matched
	}
	return l
}

func (l *eventLog) Begin(journal.Manifest) ([]journal.Verdict, error) { return l.journaled, nil }
func (l *eventLog) Sync() error                                       { return nil }

func (l *eventLog) Record(i, j int, matched bool) error {
	if l.crashAfter == 0 {
		return ErrCrash
	}
	l.crashAfter--
	l.purchased[[2]int{i, j}] = matched
	l.order = append(l.order, journal.Verdict{I: uint32(i), J: uint32(j), Matched: matched})
	return nil
}

func (l *eventLog) RecordTier(i, j int, matched bool) error {
	l.tiered[[2]int{i, j}] = matched
	return nil
}

// recordPairs maps a DP run's journaled handle pairs back to record pairs
// through its pad maps, dropping the pairs that touch a dummy — they label
// nothing; a k-anonymous run journals record pairs already.
func recordPairs(res *core.Result, pairs map[[2]int]bool) map[[2]int]bool {
	pa, pb := res.Padded()
	if pa.Map == nil {
		return pairs
	}
	out := make(map[[2]int]bool, len(pairs))
	for p, v := range pairs {
		if i, j := pa.Map.RecordOf[p[0]], pb.Map.RecordOf[p[1]]; i >= 0 && j >= 0 {
			out[[2]int{i, j}] = v
		}
	}
	return out
}

// checkLabelsAgainstLog compares everything the Result answers from its
// label stores with the reference maps, pair by pair over the whole pair
// space, and the class-pair match enumerator with the PairMatched scan.
func checkLabelsAgainstLog(w *World, res *core.Result, log *eventLog) error {
	purchased, tiered := recordPairs(res, log.purchased), recordPairs(res, log.tiered)
	var scan [][2]int
	for i := 0; i < w.Alice.Len(); i++ {
		for j := 0; j < w.Bob.Len(); j++ {
			want, wantOK := purchased[[2]int{i, j}]
			if got, ok := res.SMCLabel(i, j); ok != wantOK || got != want {
				return fmt.Errorf("SMCLabel(%d,%d) = %v,%v; the event stream says %v,%v", i, j, got, ok, want, wantOK)
			}
			want, wantOK = tiered[[2]int{i, j}]
			if got := res.TierLabeled(i, j); got != wantOK || want {
				return fmt.Errorf("TierLabeled(%d,%d) = %v; the event stream says labeled=%v matched=%v (a tier label is a NonMatch)", i, j, got, wantOK, want)
			}
			if res.PairMatched(i, j) {
				scan = append(scan, [2]int{i, j})
			}
		}
	}
	if got, want := res.SMCResolvedPairs(), int64(len(purchased)); got != want {
		return fmt.Errorf("SMCResolvedPairs = %d, the event stream purchased %d distinct pairs", got, want)
	}
	if got, want := res.TierNonMatchedPairs(), int64(len(tiered)); got != want {
		return fmt.Errorf("TierNonMatchedPairs = %d, the event stream tier-labeled %d distinct pairs", got, want)
	}
	matches := res.Matches()
	if len(matches) != len(scan) || res.MatchedPairCount() != int64(len(scan)) {
		return fmt.Errorf("Matches lists %d pairs, MatchedPairCount says %d, the PairMatched scan finds %d",
			len(matches), res.MatchedPairCount(), len(scan))
	}
	for n := range scan {
		if matches[n] != scan[n] {
			return fmt.Errorf("Matches[%d] = %v, the row-major PairMatched scan has %v", n, matches[n], scan[n])
		}
	}
	return nil
}

// TestLabelStoreAgainstEventStream is the label store's differential test
// at the level of whole runs. Every generated world runs under one of the
// residual strategies, in six arms — plain, tier on, DP blocking, and
// three resumes: crashed mid-purchase,
// crashed with the tier on and resumed with it off, and resumed from a
// journal holding only the later half of a run's purchases, which the
// budget-bound walk never reaches (they arrive as Group −1 replays) —
// with an in-memory journal recording the event stream. Whatever the run
// filed must read back exactly: SMCLabel, TierLabeled and the counters
// against the recorded events, Matches against the PairMatched scan.
func TestLabelStoreAgainstEventStream(t *testing.T) {
	const (
		fresh      = iota
		crashHalf  // journal = the purchases before a crash at the halfway point
		latterHalf // journal = the purchases after it
	)
	base := baseSeed(t)
	n := worldCount(t)
	var purchases, tierLabels, replays, matches int64
	for wi := 0; wi < n; wi++ {
		w := Generate(base + int64(wi))
		strategy := []core.Strategy{core.MaximizePrecision, core.MaximizeRecall, core.TrainClassifier}[wi%3]
		arm := func(name string, cfg core.Config, resumeFrom int) {
			t.Helper()
			if cfg.Epsilon == 0 {
				cfg.Strategy = strategy
			}
			link := func(log *eventLog) (*core.Result, error) {
				c := cfg
				c.Journal = log
				return core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, c)
			}
			log := newEventLog(nil, -1)
			res, err := link(log)
			if err != nil {
				t.Fatal(repro(t, w, fmt.Errorf("%s: %w", name, err)))
			}
			if resumeFrom != fresh && res.Invocations >= 2 {
				journaled := log.order[len(log.order)/2:]
				if resumeFrom == crashHalf {
					crashed := newEventLog(nil, len(log.order)/2)
					if _, err := link(crashed); !errors.Is(err, ErrCrash) {
						t.Fatal(repro(t, w, fmt.Errorf("%s: crashed run returned %v, want ErrCrash", name, err)))
					}
					journaled = crashed.order
				}
				// Resume with the tier off: the arm that bought under the tier
				// continues into a walk that stops at its first unaffordable pair.
				cfg.Tier = core.TierOff
				log = newEventLog(journaled, -1)
				if res, err = link(log); err != nil {
					t.Fatal(repro(t, w, fmt.Errorf("%s: resumed run: %w", name, err)))
				}
				if res.Resume.ResumedPairs != int64(len(journaled)) {
					t.Fatal(repro(t, w, fmt.Errorf("%s: %d pairs resumed, %d were journaled", name, res.Resume.ResumedPairs, len(journaled))))
				}
				replays += res.Resume.ResumedPairs
			}
			if err := checkLabelsAgainstLog(w, res, log); err != nil {
				t.Fatal(repro(t, w, fmt.Errorf("%s (strategy %v): %w", name, cfg.Strategy, err)))
			}
			purchases += res.SMCResolvedPairs()
			tierLabels += res.TierNonMatchedPairs()
			matches += res.MatchedPairCount()
		}
		arm("plain", w.Cfg, fresh)
		arm("tier", tierCfg(w), fresh)
		if !unpaddable(w) {
			arm("dp", dpCfg(w, wi), fresh)
		}
		arm("resume", w.Cfg, crashHalf)
		arm("tier-then-off resume", tierCfg(w), crashHalf)
		arm("unmet-journal resume", w.Cfg, latterHalf)
	}
	if purchases == 0 || tierLabels == 0 || replays == 0 || matches == 0 {
		t.Fatalf("vacuous run: %d purchases, %d tier labels, %d replays, %d matches", purchases, tierLabels, replays, matches)
	}
}
