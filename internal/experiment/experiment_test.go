package experiment

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// smallOpts keeps the suite fast in CI while exercising every code path.
func smallOpts() Options {
	return Options{
		Records:    360,
		Seed:       99,
		Ks:         []int{2, 16, 64},
		Thetas:     []float64{0.01, 0.05, 0.10},
		QIDCounts:  []int{3, 5, 8},
		Allowances: []float64{0, 0.01, 1.0},
	}
}

// cell parses a "12.34%" or plain numeric cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestFig2Shape(t *testing.T) {
	tab, err := Fig2(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Columns) != 4 {
		t.Fatalf("fig2 shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
	// Sequences decrease with k for every method.
	for col := 1; col <= 3; col++ {
		first := cell(t, tab.Rows[0][col])
		last := cell(t, tab.Rows[len(tab.Rows)-1][col])
		if last > first {
			t.Errorf("fig2 %s: sequences rose from %v to %v with k", tab.Columns[col], first, last)
		}
	}
	// Entropy beats TDS and DataFly at the lowest k.
	tds, ent, fly := cell(t, tab.Rows[0][1]), cell(t, tab.Rows[0][2]), cell(t, tab.Rows[0][3])
	if ent < tds || ent < fly {
		t.Errorf("fig2 at k=2: Entropy %v should lead TDS %v and DataFly %v", ent, tds, fly)
	}
}

func TestFig3Decreasing(t *testing.T) {
	tab, err := Fig3(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	prev := 101.0
	for _, row := range tab.Rows {
		eff := cell(t, row[1])
		if eff > prev+5 { // small non-monotonic jitter tolerated
			t.Errorf("fig3: efficiency rose sharply from %v to %v", prev, eff)
		}
		prev = eff
	}
	first := cell(t, tab.Rows[0][1])
	last := cell(t, tab.Rows[len(tab.Rows)-1][1])
	if first <= last {
		t.Errorf("fig3: efficiency should fall with k (%v → %v)", first, last)
	}
}

func TestFig4And5Shapes(t *testing.T) {
	for _, f := range []func(Options) (*Table, error){Fig4, Fig5} {
		tab, err := f(smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Columns) != 4 {
			t.Fatalf("%s columns = %v", tab.ID, tab.Columns)
		}
		for _, row := range tab.Rows {
			for col := 1; col < 4; col++ {
				v := cell(t, row[col])
				if v < 0 || v > 100 {
					t.Errorf("%s: recall %v out of range", tab.ID, v)
				}
			}
		}
	}
}

func TestFig6And7(t *testing.T) {
	f6, f7, err := Fig6and7(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) != 3 || len(f7.Rows) != 3 {
		t.Fatalf("fig6/7 rows: %d, %d", len(f6.Rows), len(f7.Rows))
	}
	// The paper: blocking efficiency increases with more QIDs.
	if cell(t, f6.Rows[0][1]) > cell(t, f6.Rows[2][1]) {
		t.Errorf("fig6: efficiency should grow with QIDs: %v vs %v", f6.Rows[0][1], f6.Rows[2][1])
	}
}

func TestFig8MonotoneInAllowance(t *testing.T) {
	tab, err := Fig8(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for col := 1; col < 4; col++ {
		prev := -1.0
		for _, row := range tab.Rows {
			v := cell(t, row[col])
			if v < prev-1e-9 {
				t.Errorf("fig8 %s: recall fell from %v to %v as allowance grew", tab.Columns[col], prev, v)
			}
			prev = v
		}
		if prev != 100 {
			t.Errorf("fig8 %s: full allowance recall = %v, want 100%%", tab.Columns[col], prev)
		}
	}
}

func TestStrategiesTable(t *testing.T) {
	tab, err := Strategies(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("strategies rows = %d", len(tab.Rows))
	}
	// Strategy 1: precision 100. Strategy 2: recall 100.
	if got := cell(t, tab.Rows[0][1]); got != 100 {
		t.Errorf("maximize-precision precision = %v", got)
	}
	if got := cell(t, tab.Rows[1][2]); got != 100 {
		t.Errorf("maximize-recall recall = %v", got)
	}
}

func TestAnonymizersTable(t *testing.T) {
	tab, err := Anonymizers(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("anonymizers rows = %d", len(tab.Rows))
	}
}

// TestRenderAndAll walks the suite's arm table the way pprl-bench does:
// every artifact is listed once, every arm renders its tables under its
// own ids, and an arm's report passes its gate.
func TestRenderAndAll(t *testing.T) {
	opts := smallOpts()
	opts.Ks = []int{2, 64}
	opts.Thetas = []float64{0.05}
	opts.QIDCounts = []int{5}
	opts.Allowances = []float64{0.015}
	var buf bytes.Buffer
	seen := make(map[string]bool)
	for _, arm := range Arms {
		for _, id := range arm.IDs {
			if seen[id] {
				t.Errorf("artifact %s is listed by two arms", id)
			}
			seen[id] = true
		}
		if arm.Text != nil {
			if err := arm.Text(&buf); err != nil {
				t.Fatalf("%v: %v", arm.IDs, err)
			}
			continue
		}
		tables, rep, err := arm.Tables(opts)
		if err != nil {
			t.Fatalf("%v: %v", arm.IDs, err)
		}
		if len(tables) != len(arm.IDs) {
			t.Fatalf("%v: %d tables", arm.IDs, len(tables))
		}
		for i, tab := range tables {
			if tab.ID != arm.IDs[i] {
				t.Errorf("arm %v renders %s as its table %d", arm.IDs, tab.ID, i)
			}
			if err := tab.Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
		if rep != nil {
			if err := rep.Gate(); err != nil {
				t.Errorf("%v: %v", arm.IDs, err)
			}
		}
	}
	if len(seen) != 17 {
		t.Errorf("the arms list %d artifacts, want 17", len(seen))
	}
	out := buf.String()
	for id := range seen {
		if !strings.Contains(out, id+" — ") {
			t.Errorf("render output missing %s", id)
		}
	}
}

func TestBaselinesTable(t *testing.T) {
	tab, err := Baselines(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("baselines rows = %d", len(tab.Rows))
	}
	// Pure SMC: perfect but maximal cost.
	if cell(t, tab.Rows[0][2]) != 100 || cell(t, tab.Rows[0][3]) != 100 {
		t.Errorf("pure SMC row should be perfect: %v", tab.Rows[0])
	}
	// Optimistic sanitization trades precision for recall.
	if cell(t, tab.Rows[2][3]) != 100 {
		t.Errorf("optimistic sanitization recall = %v, want 100%%", tab.Rows[2][3])
	}
	if cell(t, tab.Rows[2][2]) >= 100 {
		t.Errorf("optimistic sanitization precision = %v, should be < 100%%", tab.Rows[2][2])
	}
	// The hybrid rows keep 100% precision at far lower invocation counts.
	pureCost := cell(t, tab.Rows[0][1])
	for _, row := range tab.Rows[3:] {
		if cell(t, row[2]) != 100 {
			t.Errorf("%s: precision %v != 100%%", row[0], row[2])
		}
		if cell(t, row[1]) >= pureCost {
			t.Errorf("%s: invocations %v not below pure SMC %v", row[0], row[1], pureCost)
		}
	}
	// Full-recall hybrid reaches 100% recall.
	if cell(t, tab.Rows[4][3]) != 100 {
		t.Errorf("full-recall hybrid recall = %v", tab.Rows[4][3])
	}
}

func TestStringsTable(t *testing.T) {
	tab, err := Strings(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("strings rows = %d", len(tab.Rows))
	}
	// With no corruption the two rules agree on ground truth and both
	// should do well; at 50% corruption the edit rule must beat the
	// exact-equality baseline.
	lastEdit := cell(t, tab.Rows[3][1])
	lastExact := cell(t, tab.Rows[3][2])
	if lastEdit <= lastExact {
		t.Errorf("at 50%% corruption edit (%v) should beat exact (%v)", lastEdit, lastExact)
	}
}

func TestBloomTable(t *testing.T) {
	tab, err := Bloom(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("bloom rows = %d", len(tab.Rows))
	}
	// The hybrid row keeps exact precision.
	hybrid := tab.Rows[3]
	if cell(t, hybrid[1]) != 100 {
		t.Errorf("hybrid precision = %v", hybrid[1])
	}
	// Loosening the Dice threshold trades precision for recall.
	if cell(t, tab.Rows[0][1]) < cell(t, tab.Rows[2][1]) {
		t.Errorf("precision should fall as the threshold loosens: %v vs %v", tab.Rows[0][1], tab.Rows[2][1])
	}
	if cell(t, tab.Rows[0][2]) > cell(t, tab.Rows[2][2]) {
		t.Errorf("recall should rise as the threshold loosens: %v vs %v", tab.Rows[0][2], tab.Rows[2][2])
	}
}

func TestDiversityTable(t *testing.T) {
	tab, err := Diversity(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("diversity rows = %d", len(tab.Rows))
	}
	// More diversity cannot add sequences.
	if cell(t, tab.Rows[1][1]) > cell(t, tab.Rows[0][1]) {
		t.Errorf("l=2 produced more sequences (%v) than l=1 (%v)", tab.Rows[1][1], tab.Rows[0][1])
	}
}

func TestTimingTable(t *testing.T) {
	opts := smallOpts()
	tab, err := Timing(opts, 256, 1) // small key for test speed
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("timing rows = %d, want 8", len(tab.Rows))
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "secure comparison") {
		t.Error("timing table missing secure comparison row")
	}
}

func TestWorkedExampleCounts(t *testing.T) {
	res, err := WorkedExample()
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedPairs != 6 || res.NonMatchedPairs != 12 || res.UnknownPairs != 18 {
		t.Errorf("worked example = %d/%d/%d, want 6/12/18",
			res.MatchedPairs, res.NonMatchedPairs, res.UnknownPairs)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Records != 1800 || o.K != 32 || o.Theta != 0.05 || o.AllowanceFraction != 0.015 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if len(o.Ks) != 10 || len(o.Thetas) != 10 || len(o.QIDCounts) != 6 || len(o.Allowances) != 7 {
		t.Errorf("sweep defaults wrong: %+v", o)
	}
	if len(o.QIDs) != 5 {
		t.Errorf("default QIDs = %v", o.QIDs)
	}
}

func TestWorkloadCapK(t *testing.T) {
	w := NewWorkload(Options{Records: 90, Seed: 1})
	if got := w.capK(1024); got != 60 {
		t.Errorf("capK(1024) = %d, want relation size 60", got)
	}
	if got := w.capK(5); got != 5 {
		t.Errorf("capK(5) = %d", got)
	}
}

// TestDPPerfGate: the dp arm fails on a row that is imprecise, buys past
// its allowance, or buys more dummy pairs than the padding holds.
func TestDPPerfGate(t *testing.T) {
	ok := DPPerfPoint{Epsilon: 1, Allowance: 10, RecordSpent: 6, DummySpent: 4, DummyPairs: 4, Precision: 1}
	if err := (&DPPerfReport{EpsilonPoints: []DPPerfPoint{ok}}).Gate(); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]func(*DPPerfPoint){
		"imprecise":          func(p *DPPerfPoint) { p.Precision = 0.99 },
		"over the allowance": func(p *DPPerfPoint) { p.RecordSpent++ },
		"over the padding":   func(p *DPPerfPoint) { p.DummyPairs-- },
	} {
		pt := ok
		bad(&pt)
		if err := (&DPPerfReport{EpsilonPoints: []DPPerfPoint{ok, pt}}).Gate(); err == nil {
			t.Errorf("%s: row %+v passed the gate", name, pt)
		}
	}
}
