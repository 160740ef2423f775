package smc

import (
	"fmt"
	"math/big"
	"strings"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/vgh"
)

// packedRecords exercises negative values and both verdicts under
// testSpec (equality attr, threshold T=16 attr, always attr).
func packedRecords() (alice, bob [][]int64, pairs [][2]int) {
	alice = [][]int64{{1, 10, 0}, {2, -3, 5}, {3, 100, 1}, {1, -20, 9}}
	bob = [][]int64{{1, 14, 7}, {2, 1, 0}, {9, 100, 2}, {1, -17, 3}}
	for i := range alice {
		for j := range bob {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return alice, bob, pairs
}

// runComparator collects per-pair verdicts.
func runComparator(t *testing.T, cmp Comparator, pairs [][2]int) []bool {
	t.Helper()
	out := make([]bool, len(pairs))
	for k, p := range pairs {
		got, err := cmp.Compare(p[0], p[1])
		if err != nil {
			t.Fatalf("Compare(%d,%d): %v", p[0], p[1], err)
		}
		out[k] = got
	}
	return out
}

// TestPackedMatchesOracle pins the serial engine to the plaintext oracle
// and checks the packed accounting: one decryption per packed ciphertext,
// not one per attribute.
func TestPackedMatchesOracle(t *testing.T) {
	alice, bob, pairs := packedRecords()
	plain := NewPlainComparator(testSpec(), alice, bob)
	want := runComparator(t, plain, pairs)

	spec := testSpec()
	packed, err := NewLocalSecure(spec, alice, bob, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	defer packed.Close()
	got := runComparator(t, packed, pairs)
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("pair %v: packed %v, oracle %v", pairs[k], got[k], want[k])
		}
	}
	if packed.Invocations() != int64(len(pairs)) {
		t.Errorf("invocations = %d, want %d", packed.Invocations(), len(pairs))
	}
	// Two active attributes fit one 106-bit-slot ciphertext at 256 bits:
	// exactly one decryption per comparison.
	rp, err := spec.resultPlan(256)
	if err != nil {
		t.Fatal(err)
	}
	wantDec := int64(len(pairs) * rp.pack.Ciphertexts(len(spec.activeAttrs())))
	if wantDec != int64(len(pairs)) || packed.Decryptions() != wantDec {
		t.Errorf("decryptions = %d, want %d, one per comparison", packed.Decryptions(), wantDec)
	}
}

// TestPackedShardedMatchesOracle runs the packed sharded engine,
// including the batch path, against the oracle.
func TestPackedShardedMatchesOracle(t *testing.T) {
	alice, bob, pairs := packedRecords()
	plain := NewPlainComparator(testSpec(), alice, bob)
	want := runComparator(t, plain, pairs)

	spec := testSpec()
	cmp, err := NewLocalSecureSharded(spec, alice, bob, testKeyBits, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cmp.Close()
	got, err := cmp.CompareBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("pair %v: packed sharded %v, oracle %v", pairs[k], got[k], want[k])
		}
	}
	if cmp.Invocations() != int64(len(pairs)) {
		t.Errorf("invocations = %d, want %d", cmp.Invocations(), len(pairs))
	}
	if cmp.Decryptions() >= cmp.Invocations()*int64(len(spec.activeAttrs())) {
		t.Errorf("decryptions %d not reduced below attrs×invocations %d",
			cmp.Decryptions(), cmp.Invocations()*int64(len(spec.activeAttrs())))
	}
}

// TestPackedChunksAcrossCiphertexts uses enough active attributes that
// one packed ciphertext cannot hold them all at the test key size, so
// the chunked path (⌈d/slots⌉ > 1) is exercised.
func TestPackedChunksAcrossCiphertexts(t *testing.T) {
	spec := &Spec{
		Scale: 1,
		Attrs: []AttrSpec{
			{Mode: ModeEquality},
			{Mode: ModeThreshold, T: 16},
			{Mode: ModeEquality},
			{Mode: ModeThreshold, T: 4},
			{Mode: ModeEquality},
		},
	}
	rp, err := spec.resultPlan(testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	plan := rp.pack
	if plan.Ciphertexts(len(spec.activeAttrs())) < 2 {
		t.Fatalf("want a chunked plan at %d bits, got %d slots for %d attrs",
			testKeyBits, plan.Slots, len(spec.activeAttrs()))
	}
	alice := [][]int64{{1, 10, 2, 5, 3}, {4, -8, 2, 0, 3}}
	bob := [][]int64{{1, 13, 2, 4, 3}, {1, 10, 2, 5, 9}, {4, -6, 2, 2, 3}}
	plain := NewPlainComparator(spec, alice, bob)

	cmp, err := NewLocalSecure(spec, alice, bob, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	defer cmp.Close()
	for i := range alice {
		for j := range bob {
			want, _ := plain.Compare(i, j)
			got, err := cmp.Compare(i, j)
			if err != nil {
				t.Fatalf("Compare(%d,%d): %v", i, j, err)
			}
			if got != want {
				t.Errorf("pair (%d,%d): packed %v, oracle %v", i, j, got, want)
			}
		}
	}
}

// TestPackedRejectsOversizedRecords: the fail-fast magnitude check fires
// at construction, before any ciphertext is built.
func TestPackedRejectsOversizedRecords(t *testing.T) {
	spec := testSpec()
	spec.ValueBits = 8
	bad := [][]int64{{1, 300, 0}} // 300 ≥ 2^8 on an active attribute
	ok := [][]int64{{1, 5, 0}}
	if _, err := NewLocalSecure(spec, bad, ok, testKeyBits); err == nil || !strings.Contains(err.Error(), "published domain") {
		t.Errorf("serial alice error = %v, want the bound complaint", err)
	}
	if _, err := NewLocalSecure(spec, ok, bad, testKeyBits); err == nil || !strings.Contains(err.Error(), "published domain") {
		t.Errorf("serial bob error = %v, want the bound complaint", err)
	}
	if _, err := NewLocalSecureSharded(spec, bad, ok, testKeyBits, 2); err == nil || !strings.Contains(err.Error(), "published domain") {
		t.Errorf("sharded error = %v, want the bound complaint", err)
	}
	// ModeAlways attributes exchange no ciphertexts and are exempt.
	exempt := [][]int64{{1, 5, 1 << 40}}
	cmp, err := NewLocalSecure(spec, exempt, ok, testKeyBits)
	if err != nil {
		t.Errorf("ModeAlways value should be exempt from the bound: %v", err)
	} else {
		cmp.Close()
	}
}

// TestPackedPlanInfeasibleFailsFast: a slot width beyond the modulus is
// an immediate construction error, not a hang or a wrong verdict.
func TestPackedPlanInfeasibleFailsFast(t *testing.T) {
	spec := testSpec()
	spec.ValueBits = 120 // w = 40 + 242 + 4 ≫ 256
	alice, bob, _ := packedRecords()
	if _, err := NewLocalSecure(spec, alice, bob, testKeyBits); err == nil || !strings.Contains(err.Error(), "use a larger key") {
		t.Errorf("error = %v, want infeasible-slot complaint", err)
	}
}

// TestPackedQueryRejectsWrongArity: a packed result with the two
// ciphertexts of a pair sent one per attribute is malformed.
func TestPackedQueryRejectsWrongArity(t *testing.T) {
	spec := testSpec() // 2 active attrs → 1 packed ciphertext expected
	qa, aq := NewConnPair()
	qb, bq := NewConnPair()
	go func() {
		aq.Recv()
		aq.Recv()
	}()
	go func() {
		bq.Recv()
		bq.Recv()
		bq.Send(&Message{Kind: MsgResult, Res: []*big.Int{big.NewInt(5), big.NewInt(6)}})
	}()
	q, err := NewQuerySession(qa, qb, spec, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	if pairs, cts := q.plan.frame(0, 0); pairs != 1 || cts != 1 {
		t.Fatalf("expected a session wanting 1 ciphertext for the run of one, got %d for %d pairs (plan %+v)", cts, pairs, q.plan)
	}
	if _, err := q.Compare(0, 0); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("error = %v, want malformed-result complaint", err)
	}
}

// TestBoundBySchema: the value bound, and with it the slot geometry, is a
// function of the published domains — the last leaf index of a categorical
// attribute, the larger end of a continuous one times the scale — and
// every encoded value of an in-domain record lies under it.
func TestBoundBySchema(t *testing.T) {
	flat := func(name string, leaves int) *vgh.Hierarchy {
		values := make([]string, leaves)
		for i := range values {
			values[i] = fmt.Sprintf("%s%d", name, i)
		}
		return vgh.Flat(name, "ANY", values...)
	}
	adultSchema := adult.Schema()
	adultQIDs, err := adultSchema.Resolve(adult.DefaultQIDs())
	if err != nil {
		t.Fatal(err)
	}
	mixed := dataset.MustSchema(
		dataset.CatAttr(flat("c", 256)),                                     // leaf indexes 0…255: 8 bits
		dataset.CatAttr(flat("one", 1)),                                     // a single leaf: the floor of 1 bit
		dataset.NumAttr(vgh.MustIntervalHierarchy("debt", -300, 100, 2, 2)), // |Min| is the larger end: 9 bits
		dataset.NumAttr(vgh.MustIntervalHierarchy("rate", 0, 2.5, 2, 2)),    // 2.5: 2 bits, 250 at scale 100: 8
	)
	for _, tc := range []struct {
		name             string
		schema           *dataset.Schema
		qids             []int
		scale            int64
		theta            float64
		bits             int
		widest           string
		slotBits         int
		slots1024, slots int // at 1024 and 512 bits
	}{
		// Age runs to 81 and its threshold is T = ⌊(0.05·64)²⌋ = 10: a
		// padding sentinel sits at 81 + 4.
		{"adult default QIDs", adultSchema, adultQIDs, 1, 0.05, 7, adult.AttrAge, 60, 17, 8},
		{"adult at scale 100", adultSchema, adultQIDs, 100, 0.05, 14, adult.AttrAge, 74, 13, 6}, // 8100 + 321
		{"categorical only", mixed, []int{0, 1}, 1, 0.05, 8, "c", 62, 16, 8},
		{"single leaf", mixed, []int{1}, 1, 0.05, 2, "one", 50, 20, 10},                      // the sentinels −1, −2
		{"negative Min", mixed, []int{1, 2}, 1, 0.01, 9, "debt", 64, 15, 7},                  // 300 + 5 of T = 16
		{"fractional Max", mixed, []int{3}, 1, 0.05, 3, "rate", 52, 19, 9},                   // ⌈2.5⌉ + 1 of T = 0
		{"fractional Max at scale 100", mixed, []int{0, 3}, 100, 0.05, 9, "rate", 64, 15, 7}, // 250 + 14 of T = 156
		{"negative Min at scale 7", mixed, []int{2, 3}, 7, 0.01, 12, "debt", 70, 14, 7},      // 2100 + 29 of T = 784
		{"θ ≥ 1 compares nothing", mixed, []int{0, 1}, 1, 1, 1, "", 48, 21, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rule, err := blocking.RuleFor(tc.schema, tc.qids, tc.theta)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := SpecFromRule(rule, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			spec.BoundBySchema(tc.schema, tc.qids)
			if spec.ValueBits != tc.bits || spec.widest != tc.widest {
				t.Errorf("ValueBits = %d set by %q, want %d by %q", spec.ValueBits, spec.widest, tc.bits, tc.widest)
			}
			if w := spec.slotBits(); w != tc.slotBits {
				t.Errorf("slot width = %d, want %d", w, tc.slotBits)
			}
			for bits, want := range map[int]int{1024: tc.slots1024, 512: tc.slots} {
				plan, err := spec.resultPlan(bits)
				if err != nil {
					t.Fatal(err)
				}
				if plan.pack.Slots != want {
					t.Errorf("%d slots at %d bits, want %d", plan.pack.Slots, bits, want)
				}
			}
			// The domains' extreme records pass the holders' check; one step
			// past the bound does not.
			d := dataset.New(tc.schema)
			for _, hi := range []bool{false, true} {
				rec := dataset.Record{Cells: make([]dataset.Cell, tc.schema.Len())}
				for a := 0; a < tc.schema.Len(); a++ {
					attr := tc.schema.Attr(a)
					switch {
					case attr.Kind == dataset.Continuous && hi:
						rec.Cells[a] = dataset.NumCell(attr.Intervals.Max())
					case attr.Kind == dataset.Continuous:
						rec.Cells[a] = dataset.NumCell(attr.Intervals.Min())
					case hi:
						rec.Cells[a] = dataset.Cell{Node: attr.Hierarchy.Leaf(attr.Hierarchy.NumLeaves() - 1)}
					default:
						rec.Cells[a] = dataset.Cell{Node: attr.Hierarchy.Leaf(0)}
					}
				}
				d.MustAppend(rec)
			}
			rows := EncodeRecords(d, tc.qids, tc.scale)
			if err := spec.CheckRecords(rows); err != nil {
				t.Errorf("the domain's extreme records are refused: %v", err)
			}
			if active := spec.activeAttrs(); len(active) > 0 {
				rows[0][active[0]] = 1 << tc.bits
				if err := spec.CheckRecords(rows); err == nil || !strings.Contains(err.Error(), "published domain") {
					t.Errorf("a value of 2^%d passed the check: %v", tc.bits, err)
				}
			}
		})
	}

	// A key too small for one slot names the attribute that widened it.
	spec := &Spec{Scale: 1 << 40, Attrs: make([]AttrSpec, len(adultQIDs))}
	spec.BoundBySchema(adultSchema, adultQIDs)
	if _, err := spec.resultPlan(128); err == nil || !strings.Contains(err.Error(), `"`+adult.AttrAge+`"`) {
		t.Errorf("error = %v, want one naming %q", err, adult.AttrAge)
	}
}
