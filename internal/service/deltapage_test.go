package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pprl/internal/incremental"
)

// reflectivePage is a delta page as encoding/json reads and writes it
// without the page's own codec: what a consumer decoding into a struct of
// its own sees.
type reflectivePage struct {
	Dataset string  `json:"dataset"`
	From    int     `json:"from"`
	Next    int     `json:"next"`
	Deltas  [][]int `json:"deltas"`
}

// runsOf is the reference grouping of deltas into a page's runs, written
// apart from the encoder: a run starts at x, on axis 1 if the next delta
// shares x's j and bob_id but not its i and alice_id, else on axis 0, and
// takes every following delta of x's batch that shares x's endpoint on
// that axis. [] for no deltas.
func runsOf(deltas []incremental.Delta) [][]int {
	key := func(d incremental.Delta, axis int) [3]int {
		if axis == 0 {
			return [3]int{d.Batch, d.I, d.AliceID}
		}
		return [3]int{d.Batch, d.J, d.BobID}
	}
	out := [][]int{}
	for x := 0; x < len(deltas); {
		axis := 0
		if x+1 < len(deltas) && key(deltas[x+1], 0) != key(deltas[x], 0) && key(deltas[x+1], 1) == key(deltas[x], 1) {
			axis = 1
		}
		k := key(deltas[x], axis)
		run := []int{k[0], axis, k[1], k[2]}
		for ; x < len(deltas) && key(deltas[x], axis) == k; x++ {
			o := key(deltas[x], 1-axis)
			run = append(run, o[1], o[2])
		}
		out = append(out, run)
	}
	return out
}

// expandRuns is the reference reading of runs: the deltas they hold in
// order, and false if a run is not 4 + 2n integers (n ≥ 1) on axis 0 or 1.
func expandRuns(runs [][]int) ([]incremental.Delta, bool) {
	if runs == nil {
		return nil, true
	}
	out := []incremental.Delta{}
	for _, r := range runs {
		if len(r) < 6 || len(r)%2 != 0 || r[1] != 0 && r[1] != 1 {
			return nil, false
		}
		for p := 4; p < len(r); p += 2 {
			d := incremental.Delta{Batch: r[0], I: r[2], AliceID: r[3], J: r[p], BobID: r[p+1]}
			if r[1] == 1 {
				d = incremental.Delta{Batch: r[0], J: r[2], BobID: r[3], I: r[p], AliceID: r[p+1]}
			}
			out = append(out, d)
		}
	}
	return out, true
}

// sharedDeltas is a page in the shape a live log has — stretches of one
// batch's deltas sharing a new record, alice-side (i) or bob-side (j) by
// batch — laced with what a greedy grouping must get right: a stretch cut
// by a batch change with the same record, a lone delta between stretches,
// a position shared without its id, dedup pairs I < J that share either
// endpoint, and the int extremes.
func sharedDeltas(rng *rand.Rand, n int) []incremental.Delta {
	var out []incremental.Delta
	for batch := 0; len(out) < n; batch++ {
		for r := 0; r < 1+rng.Intn(4); r++ {
			k, stretch := rng.Intn(1<<16), 1+rng.Intn(21)
			for x := 0; x < stretch; x++ {
				o := rng.Intn(1 << 16)
				d := incremental.Delta{Batch: batch, I: k, AliceID: 1000 + k, J: o, BobID: 5000 + o}
				if batch%2 == 1 {
					d = incremental.Delta{Batch: batch, I: o, AliceID: 1000 + o, J: k, BobID: 5000 + k}
				}
				out = append(out, d)
			}
		}
	}
	last := out[len(out)-1]
	return append(out,
		incremental.Delta{Batch: last.Batch + 1, I: last.I, AliceID: last.AliceID, J: 1, BobID: 2},
		incremental.Delta{Batch: last.Batch + 1, I: last.I, AliceID: last.AliceID, J: 3, BobID: 4},
		incremental.Delta{Batch: last.Batch + 1, I: 7, AliceID: 8, J: 9, BobID: 10},
		incremental.Delta{Batch: last.Batch + 1, I: 7, AliceID: 99, J: 11, BobID: 12},
		incremental.Delta{Batch: last.Batch + 1, I: 7, AliceID: 99, J: 13, BobID: 14},
		incremental.Delta{Batch: last.Batch + 2, I: 2, AliceID: 2, J: 5, BobID: 5},
		incremental.Delta{Batch: last.Batch + 2, I: 3, AliceID: 3, J: 5, BobID: 5},
		incremental.Delta{Batch: last.Batch + 2, I: 5, AliceID: 5, J: 8, BobID: 8},
		incremental.Delta{Batch: last.Batch + 2, I: 5, AliceID: 5, J: 9, BobID: 9},
		incremental.Delta{Batch: math.MaxInt, I: math.MinInt, J: math.MaxInt, AliceID: math.MinInt, BobID: -1},
		incremental.Delta{Batch: math.MaxInt, I: math.MinInt, J: 0, AliceID: math.MinInt, BobID: math.MaxInt},
		incremental.Delta{Batch: math.MinInt, I: math.MinInt, J: 0, AliceID: math.MinInt, BobID: math.MaxInt},
	)
}

// TestDeltasPageMatchesEncodingJSON holds the hand-written page encoder to
// encoding/json of the reflective shape, byte for byte, with the runs
// runsOf groups, over awkward ids, the int extremes, pages of shared and
// unshared records and pages the log hands over in several slices; every
// page then reads back through DeltasResponse as what was written.
func TestDeltasPageMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	large := make([]incremental.Delta, 5000)
	for x := range large {
		large[x] = incremental.Delta{Batch: x / 30, I: rng.Intn(1 << 20), J: rng.Intn(1 << 20), AliceID: rng.Int(), BobID: -rng.Intn(1000)}
	}
	extremes := []incremental.Delta{{Batch: math.MaxInt, I: math.MinInt, J: 0, AliceID: -1, BobID: math.MaxInt32}}
	shared := sharedDeltas(rng, 3000)
	for _, id := range []string{"ds-000001", "", `a"b\c`, "<ds>&co", "dätäset-✓", "nul\x00tab\tnl\n", "bad\xffutf8", "sep\u2028\u2029"} {
		for _, c := range []struct {
			name   string
			deltas []incremental.Delta
		}{{"empty", []incremental.Delta{}}, {"one", large[:1]}, {"extremes", extremes}, {"large", large}, {"shared", shared}} {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(reflectivePage{Dataset: id, From: 3, Next: 170, Deltas: runsOf(c.deltas)}); err != nil {
				t.Fatal(err)
			}
			var ref reflectivePage // the id as encoding/json reads it back
			if err := json.Unmarshal(want.Bytes(), &ref); err != nil {
				t.Fatal(err)
			}
			half := len(c.deltas) / 2
			for _, batches := range [][][]incremental.Delta{{c.deltas}, {nil, c.deltas[:half], {}, c.deltas[half:], nil}} {
				got := append(appendDeltasPage(nil, id, 3, 170, batches), '\n')
				if !bytes.Equal(got, want.Bytes()) {
					t.Errorf("id %q, %s page in %d slices: %d bytes differ from encoding/json's %d\n got %.200s\nwant %.200s", id, c.name, len(batches), len(got), want.Len(), got, want.Bytes())
				}
				var back DeltasResponse
				if err := json.Unmarshal(got, &back); err != nil {
					t.Fatalf("id %q, %s page: %v", id, c.name, err)
				}
				if back.Dataset != ref.Dataset || back.From != 3 || back.Next != 170 || !slices.Equal(back.Deltas, c.deltas) {
					t.Errorf("id %q, %s page read back as %q from %d next %d with %d deltas", id, c.name, back.Dataset, back.From, back.Next, len(back.Deltas))
				}
			}
			marshaled, err := json.Marshal(DeltasResponse{Dataset: id, From: 3, Next: 170, Deltas: c.deltas})
			if err != nil || !bytes.Equal(append(marshaled, '\n'), want.Bytes()) {
				t.Errorf("id %q, %s page: json.Marshal writes %.200s (%v)", id, c.name, marshaled, err)
			}
		}
	}
	// A dataset with no batches yet has an empty log; the page still says
	// [], as the copying Deltas() always made it say.
	if got := string(appendDeltasPage(nil, "ds-000001", 0, 0, nil)); got != `{"dataset":"ds-000001","from":0,"next":0,"deltas":[]}` {
		t.Errorf("nil page = %s", got)
	}
}

// pageFrom draws a page from fuzz bytes: the id is the first few bytes as
// they are (control bytes and invalid UTF-8 included), and every further
// eight bytes one int, from, next and then five ints a delta. A delta's
// first int also says, by its low three bits, which of its batch, its
// (i, alice_id) and its (j, bob_id) repeat the previous delta's, so runs
// of every shape, cut or not by a batch change, are drawn as often as
// lone deltas.
func pageFrom(data []byte) DeltasResponse {
	n := min(len(data), 12)
	p := DeltasResponse{Dataset: string(data[:n]), Deltas: []incremental.Delta{}}
	var ints []int
	for rest := data[n:]; len(rest) >= 8; rest = rest[8:] {
		ints = append(ints, int(binary.LittleEndian.Uint64(rest)))
	}
	for len(ints) < 2 {
		ints = append(ints, 0)
	}
	p.From, p.Next, ints = ints[0], ints[1], ints[2:]
	for ; len(ints) >= 5; ints = ints[5:] {
		d := incremental.Delta{Batch: ints[0], I: ints[1], J: ints[2], AliceID: ints[3], BobID: ints[4]}
		if len(p.Deltas) > 0 {
			prev := p.Deltas[len(p.Deltas)-1]
			if ints[0]&1 != 0 {
				d.Batch = prev.Batch
			}
			if ints[0]&2 != 0 {
				d.I, d.AliceID = prev.I, prev.AliceID
			}
			if ints[0]&4 != 0 {
				d.J, d.BobID = prev.J, prev.BobID
			}
		}
		p.Deltas = append(p.Deltas, d)
	}
	return p
}

// FuzzDeltasPage holds the hand decoder to encoding/json. No input panics
// it; whatever it takes, encoding/json takes into the reflective shape
// too, with runs that expandRuns reads as the same deltas and every field
// equal, and json.Unmarshal into the page itself agrees; and every page
// appendDeltasPage writes — one drawn from the input — reads back as
// written, order included.
func FuzzDeltasPage(f *testing.F) {
	for _, seed := range []string{
		`{"dataset":"ds-000001","from":3,"next":5,"deltas":[[3,0,12,1012,40,2040,41,2041],[4,1,7,2007,30,1030]]}`,
		" \t{ \"deltas\" : [ [ 1 , 0 , 2 , 3 , 4 , 5 ] ] ,\n\"next\":2 ,\"from\":1, \"dataset\":\"x\" }\r\n",
		// Refused: the five-integer delta of the page before runs, an
		// odd-length run, a run with no partner, an axis other than 0 or
		// 1, an overflow, a fraction.
		`{"dataset":"ds-000001","from":3,"next":5,"deltas":[[3,12,40,1012,2040]]}`,
		`{"deltas":[[1,0,2,3,4,5,6]]}`,
		`{"deltas":[[1,0,2,3]]}`,
		`{"deltas":[[1,2,3,4,5,6]]}`,
		`{"deltas":[[1,-1,3,4,5,6]]}`,
		`{"deltas":[[1,0,2,3,9223372036854775808,5]]}`,
		`{"deltas":[[1,0,2,3,4,5,-9223372036854775809,7]]}`,
		`{"deltas":[[1.5,0,2,3,4,5]]}`,
		`{"deltas":[[]]}`,
		`{"from":1e3}`,
		`{"next":99999999999999999999}`,
		`{"next":9223372036854775808}`,
		`{"from":-9223372036854775808,"next":9223372036854775807}`,
		`{"from":-9223372036854775809}`,
		`null`,
		`{"deltas":null}`,
		`{"from":null,"dataset":null}`,
		`{"deltas":[null]}`,
		`{"extra":{"a":[1,-2.5e-3,true,false,null,"s\"]"]},"from":1}`,
		`{"from":1,"from":2,"deltas":[[1,0,2,3,4,5]],"deltas":[]}`,
		`{"DATASET":"a","Next":3,"dataſet":"b","DeltaS":[[0,0,0,0,0,0]]}`,
		`{"dataset":"esc\"apedé😀\ud800"}`,
		"{\"dataset\":\"bad\xff\"}",
		`{"from":1} x`,
		`{"from":01}`,
		`{"from":-0}`,
		// Canonical runs and ones the fast path hands back to the general
		// path at their start: whitespace inside, a leading zero, -0, a
		// 19-digit number, the int extremes.
		"{\"deltas\":[[1,0,2,3,4,5,6,7],[ 6,1,7,8,9,10],[-0,1,2,3,4,5 ],[1,0,2,3,4,1234567890123456789]\n,[0,0,0,0,0,0]]}",
		`{"deltas":[[1,0,2,3,4,5],[1,1,02,3,4,5]]}`,
		`{"deltas":[[9223372036854775807,1,-9223372036854775808,-1,0,9223372036854775807,-9223372036854775808,0]]}`,
		`[]`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p DeltasResponse
		if p.UnmarshalJSON(data) == nil {
			var r reflectivePage
			if err := json.Unmarshal(data, &r); err != nil {
				t.Fatalf("the hand decoder takes %q; encoding/json refuses it: %v", data, err)
			}
			deltas, ok := expandRuns(r.Deltas)
			if !ok || p.Dataset != r.Dataset || p.From != r.From || p.Next != r.Next ||
				!slices.Equal(p.Deltas, deltas) || (p.Deltas == nil) != (deltas == nil) {
				t.Fatalf("%q: the hand decoder reads %+v, encoding/json %+v", data, p, r)
			}
			var q DeltasResponse
			if err := json.Unmarshal(data, &q); err != nil || !reflect.DeepEqual(p, q) {
				t.Fatalf("%q: json.Unmarshal reads %+v (%v), UnmarshalJSON %+v", data, q, err, p)
			}
		}

		page := pageFrom(data)
		raw := appendDeltasPage(nil, page.Dataset, page.From, page.Next, [][]incremental.Delta{page.Deltas})
		var back DeltasResponse
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("the page %q does not read back: %v", raw, err)
		}
		id, _ := json.Marshal(page.Dataset)
		if err := json.Unmarshal(id, &page.Dataset); err != nil { // the id as JSON carries it
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, page) {
			t.Fatalf("the page %q reads back as %+v, want %+v", raw, back, page)
		}
	})
}

// TestDeltasPageDecoder pins what the hand decoder takes and refuses.
func TestDeltasPageDecoder(t *testing.T) {
	for _, c := range []struct {
		in   string
		want *DeltasResponse // nil: refused
	}{
		{" {\"deltas\" : [ [1, 0 ,2,3,\n4, 5,6 ,7] ],\"next\":2,\"from\":1,\"dataset\":\"x\"}\t",
			&DeltasResponse{Dataset: "x", From: 1, Next: 2, Deltas: []incremental.Delta{{Batch: 1, I: 2, AliceID: 3, J: 4, BobID: 5}, {Batch: 1, I: 2, AliceID: 3, J: 6, BobID: 7}}}},
		{`{"deltas":[[4,1,7,2007,30,1030,31,1031],[5,0,1,2,3,4]]}`,
			&DeltasResponse{Deltas: []incremental.Delta{{Batch: 4, J: 7, BobID: 2007, I: 30, AliceID: 1030}, {Batch: 4, J: 7, BobID: 2007, I: 31, AliceID: 1031}, {Batch: 5, I: 1, AliceID: 2, J: 3, BobID: 4}}}},
		{`{"skip":{"a":[1,-2.5e-3,true,null,"]"]},"from":1,"from":2,"Next":3,"deltas":[[0,0,0,0,0,0]],"DELTAS":[]}`,
			&DeltasResponse{From: 2, Next: 3, Deltas: []incremental.Delta{}}},
		{`{"from":-0,"next":-9223372036854775808,"dataset":null,"deltas":null}`, &DeltasResponse{Next: math.MinInt}},
		{`{"dataset":"d\u0061t\u00e9"}`, &DeltasResponse{Dataset: "daté"}},
		{`null`, &DeltasResponse{}},
		{`{"deltas":[[3,12,40,1012,2040]]}`, nil},
		{`{"deltas":[[3,0,40,1012,2040]]}`, nil},
		{`{"deltas":[[1,0,2,3]]}`, nil},
		{`{"deltas":[[1,0,2,3,4,5,6]]}`, nil},
		{`{"deltas":[[1,2,3,4,5,6]]}`, nil},
		{`{"deltas":[[1,0,2,3,4,5],[]]}`, nil},
		{`{"deltas":[null]}`, nil},
		{`{"deltas":[[1.5,0,2,3,4,5]]}`, nil},
		{`{"deltas":[[1,0,2,3,4,9223372036854775808]]}`, nil},
		{`{"deltas":[[1,0,2,3,4,5,]]}`, nil},
		{`{"from":1e3}`, nil},
		{`{"from":9223372036854775808}`, nil},
		{`{"from":99999999999999999999}`, nil},
		{`{"from":01}`, nil},
		{`{"from":"1"}`, nil},
		{`{"dataset":5}`, nil},
		{`{"from":1} x`, nil},
		{`{"from":1,}`, nil},
		{`{"skip":[1,]}`, nil},
		{"{\"dataset\":\"tab\there\"}", nil},
		{`[]`, nil},
		{``, nil},
	} {
		var got DeltasResponse
		err := got.UnmarshalJSON([]byte(c.in))
		switch {
		case c.want == nil && err == nil:
			t.Errorf("%s: taken as %+v, want a refusal", c.in, got)
		case c.want != nil && (err != nil || !reflect.DeepEqual(got, *c.want)):
			t.Errorf("%s: read %+v (%v), want %+v", c.in, got, err, *c.want)
		}
	}
}

// TestDeltasPageShapesRefuseEachOther: a page of five-integer deltas, the
// shape before runs, is refused by the run decoder, and a run page is
// refused by a reader of five-integer deltas — neither reads the other's
// page as empty or as other deltas. A run has 4 + 2n integers, so no run
// the encoder writes has five.
func TestDeltasPageShapesRefuseEachOther(t *testing.T) {
	fiveIntegers := func(raw []byte) error {
		var r reflectivePage
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		for x, row := range r.Deltas {
			if len(row) != 5 {
				return fmt.Errorf("delta %d has %d integers, want 5", x, len(row))
			}
		}
		return nil
	}
	for _, old := range []string{
		`{"dataset":"ds-000001","from":3,"next":5,"deltas":[[3,12,40,1012,2040]]}`,
		`{"dataset":"ds-000001","from":3,"next":5,"deltas":[[3,0,40,1012,2040],[3,1,41,1012,2041]]}`,
	} {
		if fiveIntegers([]byte(old)) != nil {
			t.Fatalf("the five-integer reader refuses its own page %s", old)
		}
		var p DeltasResponse
		if err := json.Unmarshal([]byte(old), &p); err == nil {
			t.Errorf("the run decoder takes the five-integer page %s as %+v", old, p)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, deltas := range [][]incremental.Delta{{{Batch: 3, I: 12, J: 40, AliceID: 1012, BobID: 2040}}, sharedDeltas(rng, 200)} {
		raw := appendDeltasPage(nil, "ds-000001", 3, 5, [][]incremental.Delta{deltas})
		if err := fiveIntegers(raw); err == nil {
			t.Errorf("a five-integer reader takes the run page %.200s", raw)
		}
	}
}

// BenchmarkDeltasPage is one paper-scale page through the wire, 2,400
// deltas in runs of the live-ingest schedule's mean length (≈ 11 deltas
// sharing one record): written by appendDeltasPage, then read by
// json.Unmarshal into DeltasResponse as a Go client reads it, and by
// UnmarshalJSON alone — so json.Unmarshal's own validity scan is the
// difference of the two. Each reports ns per delta; write also the page's
// bytes per delta.
func BenchmarkDeltasPage(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	deltas := make([]incremental.Delta, 0, 2400)
	for len(deltas) < cap(deltas) {
		i := rng.Intn(20000)
		for range min(1+rng.Intn(21), cap(deltas)-len(deltas)) {
			j := rng.Intn(20000)
			deltas = append(deltas, incremental.Delta{Batch: 120, I: i, J: j, AliceID: 30000 + i, BobID: 30000 + j})
		}
	}
	batches := [][]incremental.Delta{deltas}
	page := appendDeltasPage(nil, "ds-000001", 120, 121, batches)
	perDelta := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(deltas)), "ns/delta")
	}
	b.Run("write", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for b.Loop() {
			buf = appendDeltasPage(buf[:0], "ds-000001", 120, 121, batches)
		}
		perDelta(b)
		b.ReportMetric(float64(len(buf))/float64(len(deltas)), "B/delta")
	})
	for _, read := range []struct {
		name   string
		decode func(*DeltasResponse) error
	}{
		{"json.Unmarshal", func(p *DeltasResponse) error { return json.Unmarshal(page, p) }},
		{"UnmarshalJSON", func(p *DeltasResponse) error { return p.UnmarshalJSON(page) }},
	} {
		b.Run(read.name, func(b *testing.B) {
			var p DeltasResponse
			b.ReportAllocs()
			for b.Loop() {
				if err := read.decode(&p); err != nil {
					b.Fatal(err)
				}
			}
			if !slices.Equal(p.Deltas, deltas) {
				b.Fatalf("read %d deltas, not the %d written", len(p.Deltas), len(deltas))
			}
			perDelta(b)
		})
	}
}
