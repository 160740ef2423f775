package testkit

import (
	"math/rand"
	"slices"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/incremental"
	"pprl/internal/session"
	"pprl/internal/smc"
)

// runCounter wraps a comparator and counts how the resolution kernel
// drives it: per-pair calls, and the lengths of the runs — consecutive
// pairs of one CompareBatch list sharing Alice's record — the batch path
// is handed. The run is what the secure protocol amortizes over (one share
// set from Alice, shared result ciphertexts), so an adapter that quietly
// bought one pair at a time would keep every verdict right and lose the
// protocol's whole fan-out.
type runCounter struct {
	smc.Comparator
	compares int
	batches  int
	runs     []int
}

func (c *runCounter) Compare(i, j int) (bool, error) {
	c.compares++
	return c.Comparator.Compare(i, j)
}

func (c *runCounter) CompareBatch(pairs [][2]int) ([]bool, error) {
	c.batches++
	for x := 0; x < len(pairs); {
		n := 1
		for x+n < len(pairs) && pairs[x+n][0] == pairs[x][0] {
			n++
		}
		c.runs = append(c.runs, n)
		x += n
	}
	return c.Comparator.CompareBatch(pairs)
}

// counted wraps every comparator the factory builds (the incremental
// engine builds one per batch) and collects the wrappers.
func counted(inner core.ComparatorFactory, into *[]*runCounter) core.ComparatorFactory {
	return func(alice, bob [][]int64, spec *smc.Spec, workers int) (smc.Comparator, error) {
		cmp, err := inner(alice, bob, spec, workers)
		if err != nil {
			return nil, err
		}
		c := &runCounter{Comparator: cmp}
		*into = append(*into, c)
		return c, nil
	}
}

// tally sums the counters: per-pair calls, batch calls, pairs bought
// through the batch path, and the upper median run.
func tally(counters []*runCounter) (compares, batches int, pairs int64, median int) {
	var runs []int
	for _, c := range counters {
		compares += c.compares
		batches += c.batches
		runs = append(runs, c.runs...)
	}
	for _, n := range runs {
		pairs += int64(n)
	}
	if len(runs) == 0 {
		return compares, batches, 0, 0
	}
	slices.Sort(runs)
	return compares, batches, pairs, runs[len(runs)/2]
}

// tapConn shows every message sent through it to onSend.
type tapConn struct {
	smc.Conn
	onSend func(*smc.Message)
}

func (c tapConn) Send(m *smc.Message) error {
	c.onSend(m)
	return c.Conn.Send(m)
}

// wireRuns rebuilds the runs of the CompareBatch lists session.RunQuery
// hands its comparator — it builds its own, so the wire is where its batch
// path shows — from the requests the querying party sends: Alice is told
// the record, then Bob the run's records. The protocol cuts a run at half
// its pipelining window, so a request for the same Alice record right
// after a full cut continues the run. A pair-at-a-time kernel sends only
// requests of one, which are never full cuts: every run stays one.
type wireRuns struct {
	alice, lastAlice, lastSent int
	runs                       []int
}

const wireCut = 8 // half the default pipelining window

func (w *wireRuns) toAlice(m *smc.Message) {
	if m.Kind == smc.MsgCompare {
		w.alice = m.Record
	}
}

func (w *wireRuns) toBob(m *smc.Message) {
	if m.Kind != smc.MsgCompare {
		return
	}
	if n := len(w.runs); n > 0 && w.lastSent == wireCut && w.lastAlice == w.alice {
		w.runs[n-1] += len(m.Records)
	} else {
		w.runs = append(w.runs, len(m.Records))
	}
	w.lastAlice, w.lastSent = w.alice, len(m.Records)
}

// TestBatchPathIsReached drives every adapter of the resolution kernel at
// k = 8 and checks that purchases arrive through CompareBatch, never
// Compare, and — where the groups are A × B class pairs — in runs whose
// median is at least k: a row of the group is a run.
func TestBatchPathIsReached(t *testing.T) {
	const k = 8
	alice, bob := dataset.SplitOverlap(adult.Generate(600, 23), rand.New(rand.NewSource(24)))

	for _, c := range []struct {
		name      string
		factory   core.ComparatorFactory
		allowance int64
	}{
		{"core plain", core.PlainComparatorFactory, 5000},
		{"core secure 512", core.SecureComparatorFactory(512), 300},
	} {
		t.Run(c.name, func(t *testing.T) {
			var counters []*runCounter
			cfg := core.DefaultConfig(adult.DefaultQIDs())
			cfg.AliceK, cfg.BobK = k, k
			cfg.Allowance = c.allowance
			cfg.Comparator = counted(c.factory, &counters)
			res, err := core.Link(core.Holder{Data: alice}, core.Holder{Data: bob}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			compares, _, pairs, median := tally(counters)
			if compares != 0 || pairs != res.Invocations || res.Invocations != c.allowance || median < k {
				t.Errorf("%d Compare calls, %d of %d purchases (allowance %d) through CompareBatch, median run %d; want 0, all of them, ≥ %d",
					compares, pairs, res.Invocations, c.allowance, median, k)
			}
		})
	}

	t.Run("session in memory", func(t *testing.T) {
		qa, aq := smc.NewConnPair()
		qb, bq := smc.NewConnPair()
		ab, ba := smc.NewConnPair()
		errs := make(chan error, 2)
		go func() { errs <- session.RunHolder(aq, ab, session.HolderConfig{Data: alice, K: k}, true) }()
		go func() { errs <- session.RunHolder(bq, ba, session.HolderConfig{Data: bob, K: k}, false) }()
		var wire wireRuns
		res, err := session.RunQuery(tapConn{qa, wire.toAlice}, tapConn{qb, wire.toBob}, session.QueryConfig{
			Schema: alice.Schema(), QIDs: adult.DefaultQIDs(), Theta: 0.05, Allowance: 300, KeyBits: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatalf("holder: %v", err)
			}
		}
		var pairs int64
		for _, n := range wire.runs {
			pairs += int64(n)
		}
		slices.Sort(wire.runs)
		if median := wire.runs[len(wire.runs)/2]; pairs != res.Invocations || res.Invocations != 300 || median < k {
			t.Errorf("%d of %d purchases in %d runs, median %d; want all 300, median ≥ %d",
				pairs, res.Invocations, len(wire.runs), median, k)
		}
	})

	// The incremental engine's groups are A × B too — a batch's new
	// members against a resident bin — but on a bob-side batch the rows are
	// the residents and a row is as wide as the batch made the bin, often
	// one; what must hold is that purchases reach the batch path in chunks,
	// not as lists of one.
	t.Run("incremental in 4 batches", func(t *testing.T) {
		var counters []*runCounter
		eng, err := incremental.New(alice.Schema(), incremental.Config{
			QIDs: adult.DefaultQIDs(), Comparator: counted(core.PlainComparatorFactory, &counters),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []incStep{
			{1, bob.Records()[:bob.Len()/2]}, {0, alice.Records()[:alice.Len()/2]},
			{1, bob.Records()[bob.Len()/2:]}, {0, alice.Records()[alice.Len()/2:]},
		} {
			if _, err := eng.Append(s.side, s.recs); err != nil {
				t.Fatal(err)
			}
		}
		compares, batches, pairs, _ := tally(counters)
		if st := eng.Stats(); compares != 0 || pairs == 0 || pairs != st.Purchased || int64(batches)*k > pairs {
			t.Errorf("%d Compare calls, %d of %d purchases through %d CompareBatch calls; want 0, all of them, ≥ %d pairs a call",
				compares, pairs, st.Purchased, batches, k)
		}
	})
}
