package smc

import (
	"math"
	"math/bits"
	"math/rand"
	"net"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/vgh"
)

// testKeyBits keeps protocol tests fast; benchmarks use 1024 bits.
const testKeyBits = 256

func testSpec() *Spec {
	return &Spec{
		Scale: 1,
		Attrs: []AttrSpec{
			{Mode: ModeEquality},         // a categorical attribute
			{Mode: ModeThreshold, T: 16}, // |a-b| ≤ 4
			{Mode: ModeAlways},           // θ ≥ 1 on a categorical attribute
		},
	}
}

func TestSpecMatches(t *testing.T) {
	s := testSpec()
	cases := []struct {
		a, b []int64
		want bool
	}{
		{[]int64{1, 10, 99}, []int64{1, 10, 0}, true}, // equal, zero distance, always
		{[]int64{1, 10, 0}, []int64{1, 14, 0}, true},  // boundary: 4² = 16 ≤ 16
		{[]int64{1, 10, 0}, []int64{1, 15, 0}, false}, // 5² = 25 > 16
		{[]int64{1, 10, 0}, []int64{2, 10, 0}, false}, // inequality on equality attr
		{[]int64{1, -3, 0}, []int64{1, 1, 0}, true},   // negative values, |−3−1| = 4
		{[]int64{5, 0, 7}, []int64{5, 0, 1234}, true}, // ModeAlways ignores the cell
	}
	for i, c := range cases {
		if got := s.Matches(c.a, c.b); got != c.want {
			t.Errorf("case %d: Matches(%v,%v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestSpecFromRule(t *testing.T) {
	edu := vgh.Flat("edu", "ANY", "a", "b", "c")
	metrics := []distance.Metric{
		distance.Hamming{},
		distance.Euclidean{Norm: 98},
		distance.Hamming{},
	}
	rule, err := blocking.NewRule(metrics, []float64{0.5, 0.2, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFromRule(rule, 1)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Attrs[0].Mode != ModeEquality {
		t.Errorf("attr 0 mode = %v, want equality", spec.Attrs[0].Mode)
	}
	if spec.Attrs[1].Mode != ModeThreshold {
		t.Errorf("attr 1 mode = %v, want threshold", spec.Attrs[1].Mode)
	}
	// T = floor((0.2·98)² ) = floor(384.16) = 384.
	if spec.Attrs[1].T != 384 {
		t.Errorf("attr 1 T = %d, want 384", spec.Attrs[1].T)
	}
	if spec.Attrs[2].Mode != ModeAlways {
		t.Errorf("attr 2 (θ=1) mode = %v, want always", spec.Attrs[2].Mode)
	}

	if _, err := SpecFromRule(rule, 0); err == nil {
		t.Error("scale 0 should fail")
	}
	editRule, err := blocking.NewRule([]distance.Metric{distance.NewEdit(edu)}, []float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SpecFromRule(editRule, 1); err == nil {
		t.Error("edit metric should be rejected (no arithmetic circuit)")
	}
}

func TestSpecEquivalentToExactRule(t *testing.T) {
	// With integer data at scale 1, Spec.Matches must agree with
	// Rule.DecideExact on every pair.
	edu := vgh.Flat("edu", "ANY", "a", "b", "c", "d")
	ih := vgh.MustIntervalHierarchy("num", 0, 64, 2, 3)
	schema := dataset.MustSchema(dataset.CatAttr(edu), dataset.NumAttr(ih))
	rule, err := blocking.RuleFor(schema, []int{0, 1}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFromRule(rule, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	mk := func(n int) *dataset.Dataset {
		d := dataset.New(schema)
		leaves := []string{"a", "b", "c", "d"}
		for i := 0; i < n; i++ {
			d.MustAppend(dataset.Record{EntityID: i, Cells: []dataset.Cell{
				dataset.CatCell(edu, leaves[rng.Intn(4)]),
				dataset.NumCell(float64(rng.Intn(64))),
			}})
		}
		return d
	}
	a, b := mk(30), mk(30)
	ea := EncodeRecords(a, []int{0, 1}, 1)
	eb := EncodeRecords(b, []int{0, 1}, 1)
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			exact := rule.DecideExact(
				blocking.RecordSequence(a, []int{0, 1}, i),
				blocking.RecordSequence(b, []int{0, 1}, j),
			)
			if got := spec.Matches(ea[i], eb[j]); got != exact {
				t.Fatalf("pair (%d,%d): spec %v, exact rule %v", i, j, got, exact)
			}
		}
	}
}

func TestPlainComparator(t *testing.T) {
	spec := testSpec()
	alice := [][]int64{{1, 10, 0}, {2, 20, 0}}
	bob := [][]int64{{1, 12, 0}, {2, 50, 0}}
	c := NewPlainComparator(spec, alice, bob)
	defer c.Close()
	if got, err := c.Compare(0, 0); err != nil || !got {
		t.Errorf("Compare(0,0) = %v, %v; want match", got, err)
	}
	if got, err := c.Compare(1, 1); err != nil || got {
		t.Errorf("Compare(1,1) = %v, %v; want non-match", got, err)
	}
	if _, err := c.Compare(5, 0); err == nil {
		t.Error("out-of-range pair should fail")
	}
	if c.Invocations() != 2 {
		t.Errorf("Invocations = %d, want 2 (failed calls don't count)", c.Invocations())
	}

	// The packed layout at its edges: every pair of every case, by batch
	// and one at a time, against Spec.Matches.
	for _, tc := range packCases {
		t.Run(tc.name, func(t *testing.T) {
			spec := &Spec{Scale: 1, Attrs: tc.attrs}
			p := NewPlainComparator(spec, tc.alice, tc.bob)
			var pairs [][2]int
			for i := range tc.alice {
				for j := range tc.bob {
					pairs = append(pairs, [2]int{i, j})
				}
			}
			got, err := p.CompareBatch(pairs)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.rest) != tc.rest || bits.Len64(p.word.hg) != tc.bits {
				t.Errorf("%d tests left to the rows and %d bits of word, want %d and %d", len(p.rest), bits.Len64(p.word.hg), tc.rest, tc.bits)
			}
			for x, pr := range pairs {
				a, b := tc.alice[pr[0]], tc.bob[pr[1]]
				one, err := p.Compare(pr[0], pr[1])
				if want := spec.Matches(a, b); got[x] != want || one != want || err != nil {
					t.Errorf("%v vs %v: CompareBatch %v, Compare %v (%v), Spec.Matches %v", a, b, got[x], one, err, want)
				}
			}
		})
	}
}

// TestSecureMatchesPlain is the protocol's correctness theorem: the full
// three-party Paillier circuit returns exactly the oracle's verdicts.
func TestSecureMatchesPlain(t *testing.T) {
	spec := testSpec()
	rng := rand.New(rand.NewSource(21))
	mk := func(n int) [][]int64 {
		out := make([][]int64, n)
		for i := range out {
			out[i] = []int64{int64(rng.Intn(3)), int64(rng.Intn(12)), int64(rng.Intn(5))}
		}
		return out
	}
	alice, bob := mk(6), mk(6)
	sec, err := NewLocalSecure(spec, alice, bob, testKeyBits)
	if err != nil {
		t.Fatalf("NewLocalSecure: %v", err)
	}
	plain := NewPlainComparator(spec, alice, bob)
	for i := range alice {
		for j := range bob {
			want, _ := plain.Compare(i, j)
			got, err := sec.Compare(i, j)
			if err != nil {
				t.Fatalf("Compare(%d,%d): %v", i, j, err)
			}
			if got != want {
				t.Fatalf("Compare(%d,%d) = %v, oracle says %v", i, j, got, want)
			}
		}
	}
	if sec.Invocations() != 36 {
		t.Errorf("Invocations = %d, want 36", sec.Invocations())
	}
	if sec.BytesTransferred() <= 0 {
		t.Error("BytesTransferred should be positive")
	}
	if err := sec.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// Property version over random small inputs and thresholds.
func TestSecureMatchesPlainProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("crypto property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := &Spec{Scale: 1, Attrs: []AttrSpec{
			{Mode: ModeEquality},
			{Mode: ModeThreshold, T: int64(rng.Intn(50))},
		}}
		alice := [][]int64{{int64(rng.Intn(3)), int64(rng.Intn(20) - 10)}}
		bob := [][]int64{{int64(rng.Intn(3)), int64(rng.Intn(20) - 10)}}
		sec, err := NewLocalSecure(spec, alice, bob, testKeyBits)
		if err != nil {
			return false
		}
		defer sec.Close()
		got, err := sec.Compare(0, 0)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return got == spec.Matches(alice[0], bob[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestCompareBatchMatchesSequential: the pipelined batch path must return
// exactly the verdicts of sequential Compare calls, in order.
func TestCompareBatchMatchesSequential(t *testing.T) {
	spec := testSpec()
	rng := rand.New(rand.NewSource(55))
	mk := func(n int) [][]int64 {
		out := make([][]int64, n)
		for i := range out {
			out[i] = []int64{int64(rng.Intn(2)), int64(rng.Intn(8)), 0}
		}
		return out
	}
	alice, bob := mk(7), mk(7)

	seq, err := NewLocalSecure(spec, alice, bob, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	bat, err := NewLocalSecure(spec, alice, bob, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	defer bat.Close()

	// More pairs than the pipeline window to exercise refilling.
	var pairs [][2]int
	for i := range alice {
		for j := range bob {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	got, err := bat.CompareBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for x, p := range pairs {
		want, err := seq.Compare(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if got[x] != want {
			t.Fatalf("pair %v: batch %v, sequential %v", p, got[x], want)
		}
	}
	if bat.Invocations() != int64(len(pairs)) {
		t.Errorf("batch invocations = %d, want %d", bat.Invocations(), len(pairs))
	}
	// Empty batch is a no-op.
	empty, err := bat.CompareBatch(nil)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty batch: %v, %v", empty, err)
	}
}

// TestShuffledAttributesSameVerdicts: Bob shuffles every pair's values to
// hide which attribute failed, and every verdict stays identical to the
// oracle's.
func TestShuffledAttributesSameVerdicts(t *testing.T) {
	spec := testSpec()
	rng := rand.New(rand.NewSource(33))
	mk := func(n int) [][]int64 {
		out := make([][]int64, n)
		for i := range out {
			out[i] = []int64{int64(rng.Intn(2)), int64(rng.Intn(10)), 0}
		}
		return out
	}
	alice, bob := mk(5), mk(5)
	sec, err := NewLocalSecure(spec, alice, bob, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Close()
	for i := range alice {
		for j := range bob {
			got, err := sec.Compare(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if want := spec.Matches(alice[i], bob[j]); got != want {
				t.Fatalf("shuffled Compare(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// tcpConnPair returns the two ends of a loopback TCP connection: the
// accepting end first, then the dialing one.
func tcpConnPair(t testing.TB) (server Conn, client Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	cc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return NewNetConn(r.c), NewNetConn(cc)
}

// TestSecureOverTCP runs the same protocol with all three links on real
// TCP connections.
func TestSecureOverTCP(t *testing.T) {
	spec := testSpec()
	alice := [][]int64{{1, 10, 0}}
	bob := [][]int64{{1, 11, 0}, {2, 40, 0}}

	aq, qa := tcpConnPair(t) // alice's query link / query's alice link
	bq, qb := tcpConnPair(t)
	ab, ba := tcpConnPair(t)

	errs := make(chan error, 2)
	go func() { errs <- RunAlice(aq, ab, alice, spec) }()
	go func() { errs <- RunBob(bq, ba, bob, spec) }()

	q, err := NewQuerySession(qa, qb, spec, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := q.Compare(0, 0); err != nil || !got {
		t.Errorf("Compare(0,0) over TCP = %v, %v; want match", got, err)
	}
	if got, err := q.Compare(0, 1); err != nil || got {
		t.Errorf("Compare(0,1) over TCP = %v, %v; want non-match", got, err)
	}
	if err := q.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("party error: %v", err)
		}
	}
	if qa.Bytes() == 0 || qb.Bytes() == 0 {
		t.Error("TCP byte counters should be positive")
	}
}

func TestEncodeRecords(t *testing.T) {
	edu := vgh.Flat("edu", "ANY", "x", "y", "z")
	ih := vgh.MustIntervalHierarchy("num", 0, 10, 2, 1)
	schema := dataset.MustSchema(dataset.CatAttr(edu), dataset.NumAttr(ih))
	d := dataset.New(schema)
	d.MustAppend(dataset.Record{Cells: []dataset.Cell{dataset.CatCell(edu, "y"), dataset.NumCell(3.26)}})
	enc := EncodeRecords(d, []int{0, 1}, 100)
	if enc[0][0] != 1 {
		t.Errorf("leaf index of y = %d, want 1", enc[0][0])
	}
	if enc[0][1] != 326 {
		t.Errorf("scaled 3.26 = %d, want 326", enc[0][1])
	}
}

// TestEncodedRowsAreCapped: the rows EncodeRecords and AppendEncoded
// return are cut from shared backing arrays, so each is capped at its own
// length — appending to one row must not write into the next, within a
// block, across a block boundary (2,048 two-value rows a block) or across
// an extension.
func TestEncodedRowsAreCapped(t *testing.T) {
	edu := vgh.Flat("edu", "ANY", "x", "y", "z")
	ih := vgh.MustIntervalHierarchy("num", 0, 10, 2, 1)
	d := dataset.New(dataset.MustSchema(dataset.CatAttr(edu), dataset.NumAttr(ih)))
	appendRows(d, edu, 2049)
	rows := EncodeRecords(d, []int{0, 1}, 1)
	appendRows(d, edu, 2)
	rows = AppendEncoded(rows, d, []int{0, 1}, 1)
	if len(rows) != 2051 {
		t.Fatalf("%d rows, want 2051", len(rows))
	}
	for i := range rows {
		if cap(rows[i]) != len(rows[i]) {
			t.Fatalf("row %d: cap %d, len %d", i, cap(rows[i]), len(rows[i]))
		}
		_ = append(rows[i], -1, -1)
	}
	for i, row := range rows {
		if want := []int64{2, int64(i % 2049 % 10)}; !slices.Equal(row, want) {
			t.Fatalf("row %d = %v after appending to every row, want %v", i, row, want)
		}
	}
}

// TestEncodeRecordsAllocsPerBlock: encoding allocates the row list, the
// kind table and one backing array per 32 KiB of values — three objects
// for 10 rows, five for 5,000 two-value rows — never one per row.
func TestEncodeRecordsAllocsPerBlock(t *testing.T) {
	edu := vgh.Flat("edu", "ANY", "x", "y", "z")
	ih := vgh.MustIntervalHierarchy("num", 0, 10, 2, 1)
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 3}, {5000, 5}} {
		d := dataset.New(dataset.MustSchema(dataset.CatAttr(edu), dataset.NumAttr(ih)))
		appendRows(d, edu, c.n)
		if got := testing.AllocsPerRun(20, func() { EncodeRecords(d, []int{0, 1}, 1) }); got != c.want {
			t.Errorf("EncodeRecords over %d rows: %v allocations, want %v", c.n, got, c.want)
		}
	}
}

// appendRows appends n records ("z", i % 10) to d, i counting from 0.
func appendRows(d *dataset.Dataset, edu *vgh.Hierarchy, n int) {
	for i := 0; i < n; i++ {
		d.MustAppend(dataset.Record{Cells: []dataset.Cell{dataset.CatCell(edu, "z"), dataset.NumCell(float64(i % 10))}})
	}
}

// TestCheckIntegralRefusesNonFinite: NaN and ±Inf pass an integrality test
// built from comparisons (every comparison with NaN is false) and all
// encode to the least int64, so two of them compare as equal. They are
// refused by record and attribute, as are fractional values; whole ones
// pass.
func TestCheckIntegralRefusesNonFinite(t *testing.T) {
	edu := vgh.Flat("edu", "ANY", "x", "y")
	ih := vgh.MustIntervalHierarchy("age", 0, 100, 2, 2)
	schema := dataset.MustSchema(dataset.CatAttr(edu), dataset.NumAttr(ih))
	for _, c := range []struct {
		v    float64
		want string
	}{
		{math.NaN(), `record 8 attribute "age": NaN is not a finite number`},
		{math.Inf(1), `record 8 attribute "age": +Inf is not a finite number`},
		{math.Inf(-1), `record 8 attribute "age": -Inf is not a finite number`},
		{40.5, `record 8 attribute "age" value 40.5 is not a whole multiple`},
		{40, ""},
	} {
		recs := []dataset.Record{
			{Cells: []dataset.Cell{dataset.CatCell(edu, "x"), dataset.NumCell(3)}},
			{Cells: []dataset.Cell{dataset.CatCell(edu, "y"), dataset.NumCell(c.v)}},
		}
		err := CheckIntegral(schema, recs, []int{0, 1}, 1, 7)
		if (err == nil) != (c.want == "") || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("age %v: error %v, want %q", c.v, err, c.want)
		}
	}
}

func TestConnPairCloseUnblocksRecv(t *testing.T) {
	a, b := NewConnPair()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	a.Close()
	if err := <-done; err == nil {
		t.Error("Recv after close should fail")
	}
	if err := a.Send(&Message{Kind: MsgShutdown}); err == nil {
		t.Error("Send after close should fail")
	}
}

func TestQuerySessionClosedCompare(t *testing.T) {
	spec := testSpec()
	sec, err := NewLocalSecure(spec, [][]int64{{0, 0, 0}}, [][]int64{{0, 0, 0}}, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	if err := sec.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sec.Compare(0, 0); err == nil {
		t.Error("Compare after Close should fail")
	}
}

// TestSmallKeyRefusedUnpacked: a modulus too small for one blinded result
// value is refused at construction — the blinded form used to wrap mod N
// there and return verdicts the clear-text rule does not.
func TestSmallKeyRefusedUnpacked(t *testing.T) {
	alice, bob := [][]int64{{0}, {1 << 28}}, [][]int64{{1 << 29}}
	// In-domain values are up to 2²⁹ apart, either side of T = (2²⁸)²: a
	// 106-bit blinded result.
	spec := &Spec{Scale: 1, Attrs: []AttrSpec{{Mode: ModeThreshold, T: 1 << 56}}}
	for _, keyBits := range []int{64, 96} {
		if _, err := NewLocalSecure(spec, alice, bob, keyBits); err == nil || !strings.Contains(err.Error(), "use a larger key") {
			t.Errorf("%d bits: %v, want the modulus-fit error", keyBits, err)
		}
	}
}
