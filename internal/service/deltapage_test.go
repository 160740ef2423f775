package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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

// rowsOf is deltas in the reflective shape, [] for none.
func rowsOf(deltas []incremental.Delta) [][]int {
	out := make([][]int, len(deltas))
	for x, d := range deltas {
		out[x] = []int{d.Batch, d.I, d.J, d.AliceID, d.BobID}
	}
	return out
}

// TestDeltasPageMatchesEncodingJSON holds the hand-written page encoder to
// encoding/json of the reflective shape, byte for byte, over awkward ids,
// the int extremes and pages the log hands over in several slices; every
// page then reads back through DeltasResponse as what was written.
func TestDeltasPageMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	large := make([]incremental.Delta, 5000)
	for x := range large {
		large[x] = incremental.Delta{Batch: x / 30, I: rng.Intn(1 << 20), J: rng.Intn(1 << 20), AliceID: rng.Int(), BobID: -rng.Intn(1000)}
	}
	extremes := []incremental.Delta{{Batch: math.MaxInt, I: math.MinInt, J: 0, AliceID: -1, BobID: math.MaxInt32}}
	for _, id := range []string{"ds-000001", "", `a"b\c`, "<ds>&co", "dätäset-✓", "nul\x00tab\tnl\n", "bad\xffutf8", "sep\u2028\u2029"} {
		for _, c := range []struct {
			name   string
			deltas []incremental.Delta
		}{{"empty", []incremental.Delta{}}, {"one", large[:1]}, {"extremes", extremes}, {"large", large}} {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(reflectivePage{Dataset: id, From: 3, Next: 170, Deltas: rowsOf(c.deltas)}); err != nil {
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
// eight bytes one int, from, next and then the deltas' fields in order.
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
		p.Deltas = append(p.Deltas, incremental.Delta{Batch: ints[0], I: ints[1], J: ints[2], AliceID: ints[3], BobID: ints[4]})
	}
	return p
}

// FuzzDeltasPage holds the hand decoder to encoding/json. No input panics
// it; whatever it takes, encoding/json takes into the reflective shape
// too, with five integers a delta and every field equal, and json.Unmarshal
// into the page itself agrees; and every page appendDeltasPage writes —
// one drawn from the input — reads back as written.
func FuzzDeltasPage(f *testing.F) {
	for _, seed := range []string{
		`{"dataset":"ds-000001","from":3,"next":5,"deltas":[[3,12,40,1012,2040],[4,1,2,3,4]]}`,
		" \t{ \"deltas\" : [ [ 1 , 2 , 3 , 4 , 5 ] ] ,\n\"next\":2 ,\"from\":1, \"dataset\":\"x\" }\r\n",
		`{"deltas":[[1,2,3,4]]}`,
		`{"deltas":[[1,2,3,4,5,6]]}`,
		`{"deltas":[[1.5,2,3,4,5]]}`,
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
		`{"from":1,"from":2,"deltas":[[1,2,3,4,5]],"deltas":[]}`,
		`{"DATASET":"a","Next":3,"dataſet":"b","DeltaS":[[0,0,0,0,0]]}`,
		`{"dataset":"esc\"apedé😀\ud800"}`,
		"{\"dataset\":\"bad\xff\"}",
		`{"from":1} x`,
		`{"from":01}`,
		`{"from":-0}`,
		// Canonical deltas and ones the fast path hands back to the general
		// path at their start: whitespace inside, a leading zero, -0, a
		// 19-digit number.
		"{\"deltas\":[[1,2,3,4,5],[ 6,7,8,9,10],[-0,1,2,3,4 ],[1,2,3,4,1234567890123456789]\n,[0,0,0,0,0]]}",
		`{"deltas":[[1,2,3,4,5],[1,02,3,4,5]]}`,
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
			same := p.Dataset == r.Dataset && p.From == r.From && p.Next == r.Next &&
				len(p.Deltas) == len(r.Deltas) && (p.Deltas == nil) == (r.Deltas == nil)
			for x := 0; same && x < len(p.Deltas); x++ {
				same = slices.Equal(rowsOf(p.Deltas[x : x+1])[0], r.Deltas[x])
			}
			if !same {
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
		{" {\"deltas\" : [ [1, 2 ,3,4,\n5] ],\"next\":2,\"from\":1,\"dataset\":\"x\"}\t",
			&DeltasResponse{Dataset: "x", From: 1, Next: 2, Deltas: []incremental.Delta{{Batch: 1, I: 2, J: 3, AliceID: 4, BobID: 5}}}},
		{`{"skip":{"a":[1,-2.5e-3,true,null,"]"]},"from":1,"from":2,"Next":3,"deltas":[[0,0,0,0,0]],"DELTAS":[]}`,
			&DeltasResponse{From: 2, Next: 3, Deltas: []incremental.Delta{}}},
		{`{"from":-0,"next":-9223372036854775808,"dataset":null,"deltas":null}`, &DeltasResponse{Next: math.MinInt}},
		{`{"dataset":"d\u0061t\u00e9"}`, &DeltasResponse{Dataset: "daté"}},
		{`null`, &DeltasResponse{}},
		{`{"deltas":[[1,2,3,4]]}`, nil},
		{`{"deltas":[[1,2,3,4,5,6]]}`, nil},
		{`{"deltas":[null]}`, nil},
		{`{"deltas":[[1.5,2,3,4,5]]}`, nil},
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

// BenchmarkDeltasPage is one paper-scale page through the wire: written
// by appendDeltasPage and read by json.Unmarshal into DeltasResponse, as
// the server and a Go client do per batch — ns and B per page, and the
// page's bytes per delta.
func BenchmarkDeltasPage(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	deltas := make([]incremental.Delta, 2400)
	for x := range deltas {
		deltas[x] = incremental.Delta{Batch: 120, I: rng.Intn(20000), J: rng.Intn(20000), AliceID: rng.Intn(50000), BobID: rng.Intn(50000)}
	}
	batches := [][]incremental.Delta{deltas}
	var buf []byte
	var page DeltasResponse
	b.ReportAllocs()
	for b.Loop() {
		buf = appendDeltasPage(buf[:0], "ds-000001", 120, 121, batches)
		if err := json.Unmarshal(buf, &page); err != nil {
			b.Fatal(err)
		}
	}
	if len(page.Deltas) != len(deltas) {
		b.Fatalf("read %d deltas of %d", len(page.Deltas), len(deltas))
	}
	b.ReportMetric(float64(len(buf))/float64(len(deltas)), "B/delta")
}
