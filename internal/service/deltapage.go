package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"pprl/internal/incremental"
)

// A delta page is written and read by hand: at paper scale a page holds a
// few thousand deltas, and a consumer waits for it before it sends the
// next batch, so reflection over every delta is on the live path twice.
// The page is the JSON object of DeltasResponse with its deltas as runs:
// a run is a maximal stretch of consecutive deltas of one batch that
// share one record, written as the integers
//
//	[batch, axis, k, k_id, o₁, o₁_id, o₂, o₂_id, …]
//
// With axis 0 the deltas share i, so k/k_id are i/alice_id and each
// o/o_id a j/bob_id; with axis 1 they share j, the reverse. A lone delta
// is an axis-0 run with one partner. A live batch's deltas come a new
// record at a time (DESIGN.md §15), so a run holds about eleven of them
// and the page about half the bytes of one five-integer row a delta. A
// run has 4 + 2n integers, never five, so a reader of five-integer rows
// refuses a run page rather than misreading it, and the reverse.
// encoding/json reads a page into any shape with a [][]int "deltas".

// pagePool holds the buffers delta pages are encoded in (≈ 32 KB a page
// at paper scale).
var pagePool = sync.Pool{New: func() any { return new([]byte) }}

// appendDeltasPage appends the page {dataset, from, next, deltas} —
// deltas being the batches' deltas end to end, written as runs greedily
// in log order — to buf as encoding/json writes it, less the encoder's
// final newline; an empty page has "deltas":[].
func appendDeltasPage(buf []byte, dataset string, from, next int, batches [][]incremental.Delta) []byte {
	id, _ := json.Marshal(dataset) // a string always encodes; this is json's escaping
	buf = append(append(buf, `{"dataset":`...), id...)
	buf = strconv.AppendInt(append(buf, `,"from":`...), int64(from), 10)
	buf = strconv.AppendInt(append(buf, `,"next":`...), int64(next), 10)
	w := runWriter{buf: append(buf, `,"deltas":[`...)}
	for _, deltas := range batches {
		for _, d := range deltas {
			w.add(d)
		}
	}
	return append(w.flush(), "]}"...)
}

// runWriter writes deltas as runs. The open run's first delta is held
// until the next one says which endpoint the run shares; from its second
// delta on, the run is written as it grows and left unclosed.
type runWriter struct {
	buf  []byte
	n    int               // deltas in the open run, 0 if none is open
	axis int               // the open run's axis once n > 1
	last incremental.Delta // the open run's latest delta
	sep  bool              // a run precedes the open one
}

// shares reports whether a and b are of one batch and share the record
// the axis names.
func shares(a, b incremental.Delta, axis int) bool {
	if axis == 0 {
		return a.Batch == b.Batch && a.I == b.I && a.AliceID == b.AliceID
	}
	return a.Batch == b.Batch && a.J == b.J && a.BobID == b.BobID
}

// add extends the open run with d, or closes it and holds d as the next
// run's first delta.
func (w *runWriter) add(d incremental.Delta) {
	switch {
	case w.n > 1 && shares(w.last, d, w.axis):
	case w.n == 1 && shares(w.last, d, 0):
		w.open(w.last, 0)
	case w.n == 1 && shares(w.last, d, 1):
		w.open(w.last, 1)
	default:
		w.flush()
		w.n, w.last = 1, d
		return
	}
	w.partner(d)
	w.n, w.last = w.n+1, d
}

// open writes the head of h's run on the axis, and h's partner.
func (w *runWriter) open(h incremental.Delta, axis int) {
	if w.sep {
		w.buf = append(w.buf, ',')
	}
	w.axis = axis
	k, kid := h.I, h.AliceID
	if axis == 1 {
		k, kid = h.J, h.BobID
	}
	w.buf = strconv.AppendInt(append(w.buf, '['), int64(h.Batch), 10)
	w.buf = append(w.buf, ',', byte('0'+axis))
	w.buf = strconv.AppendInt(append(w.buf, ','), int64(k), 10)
	w.buf = strconv.AppendInt(append(w.buf, ','), int64(kid), 10)
	w.partner(h)
}

// partner writes d's other endpoint.
func (w *runWriter) partner(d incremental.Delta) {
	o, oid := d.J, d.BobID
	if w.axis == 1 {
		o, oid = d.I, d.AliceID
	}
	w.buf = strconv.AppendInt(append(w.buf, ','), int64(o), 10)
	w.buf = strconv.AppendInt(append(w.buf, ','), int64(oid), 10)
}

// flush closes the open run, writing a held lone delta as an axis-0 run
// first, and returns the buffer.
func (w *runWriter) flush() []byte {
	if w.n == 1 {
		w.open(w.last, 0)
	}
	if w.n > 0 {
		w.buf = append(w.buf, ']')
		w.sep = true
	}
	w.n = 0
	return w.buf
}

// MarshalJSON writes the page as the server does.
func (p DeltasResponse) MarshalJSON() ([]byte, error) {
	return appendDeltasPage(nil, p.Dataset, p.From, p.Next, [][]incremental.Delta{p.Deltas}), nil
}

// UnmarshalJSON reads a page without reflecting over its deltas. It takes
// what encoding/json takes into the page's shape — any whitespace and key
// order, keys matched as encoding/json matches them (exactly, else under
// case folding), unknown keys skipped, the last of a repeated key kept,
// null as no value — and refuses a run that is not 4 + 2n integers
// (n ≥ 1) or whose axis is not 0 or 1, a number that is not an int, and
// bytes after the page. Deltas is sized
// once and replaced, not reused.
func (p *DeltasResponse) UnmarshalJSON(data []byte) error {
	d := pageDecoder{buf: data}
	if err := d.page(p); err != nil {
		return fmt.Errorf("service: deltas page: %w", err)
	}
	return nil
}

// pageDecoder reads one page from buf; off is the next byte.
type pageDecoder struct {
	buf []byte
	off int
}

func (d *pageDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// ws skips whitespace and returns the next byte, 0 at the end.
func (d *pageDecoder) ws() byte {
	for ; d.off < len(d.buf); d.off++ {
		switch c := d.buf[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// expect consumes c after whitespace.
func (d *pageDecoder) expect(c byte) error {
	if d.ws() != c {
		return d.errorf("want %q", c)
	}
	d.off++
	return nil
}

// literal consumes the literal word if it is next.
func (d *pageDecoder) literal(word string) bool {
	if len(d.buf)-d.off < len(word) || string(d.buf[d.off:d.off+len(word)]) != word {
		return false
	}
	d.off += len(word)
	return true
}

func (d *pageDecoder) page(p *DeltasResponse) error {
	if d.ws() == 'n' && d.literal("null") {
		return d.end() // a null page leaves p as it is, as encoding/json does
	}
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.ws() == '}' {
		d.off++
		return d.end()
	}
	for {
		key, err := d.str()
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		isNull := d.ws() == 'n' && d.literal("null")
		switch field := pageField(key); {
		case isNull && field == "deltas":
			p.Deltas = nil
		case isNull:
		case field == "dataset":
			if p.Dataset, err = d.str(); err != nil {
				return err
			}
		case field == "from":
			if p.From, err = d.integer(); err != nil {
				return err
			}
		case field == "next":
			if p.Next, err = d.integer(); err != nil {
				return err
			}
		case field == "deltas":
			if p.Deltas, err = d.deltas(); err != nil {
				return err
			}
		default:
			if err := d.skip(); err != nil {
				return err
			}
		}
		switch d.ws() {
		case ',':
			d.off++
		case '}':
			d.off++
			return d.end()
		default:
			return d.errorf("want ',' or '}'")
		}
	}
}

// end refuses anything but whitespace after the page.
func (d *pageDecoder) end() error {
	if d.ws(); d.off != len(d.buf) {
		return d.errorf("trailing bytes after the page")
	}
	return nil
}

// pageField is the page field a key names, matched as encoding/json
// matches a key to a field — exactly, else under case folding, which no
// two of the fields share; "" for an unknown key.
func pageField(key string) string {
	for _, f := range [...]string{"dataset", "from", "next", "deltas"} {
		if strings.EqualFold(key, f) {
			return f
		}
	}
	return ""
}

// deltas reads the deltas array of runs, sized once: r runs holding n
// deltas are written with r opening brackets and 4r + 2n - 1 commas, so
// the brackets and commas left in the page size it (commas after the
// array make it larger, and one written otherwise only grows it).
func (d *pageDecoder) deltas() ([]incremental.Delta, error) {
	if err := d.expect('['); err != nil {
		return nil, err
	}
	rest := d.buf[d.off:]
	n := (bytes.Count(rest, []byte{','})+1)/2 - 2*bytes.Count(rest, []byte{'['})
	out := make([]incremental.Delta, 0, max(n, 0))
	if d.ws() == ']' {
		d.off++
		return out, nil
	}
	var scratch [64]int
	ints := scratch[:0] // the run being read, reused
	for x := 0; ; x++ {
		var err error
		if ints, err = d.ints(ints[:0]); err != nil {
			return nil, err
		}
		if out, err = appendRun(out, ints); err != nil {
			return nil, d.errorf("run %d: %v", x, err)
		}
		switch d.ws() {
		case ',':
			d.off++
		case ']':
			d.off++
			return out, nil
		default:
			return nil, d.errorf("want ',' or ']'")
		}
	}
}

// appendRun appends the deltas of the run r, [batch, axis, k, k_id, o₁,
// o₁_id, …], to out.
func appendRun(out []incremental.Delta, r []int) ([]incremental.Delta, error) {
	switch {
	case len(r) < 6 || len(r)%2 != 0:
		return nil, fmt.Errorf("%d integers, want 4 + 2n with n ≥ 1", len(r))
	case r[1] != 0 && r[1] != 1:
		return nil, fmt.Errorf("axis %d is neither 0 nor 1", r[1])
	}
	for p := 4; p < len(r); p += 2 {
		d := incremental.Delta{Batch: r[0], I: r[2], AliceID: r[3], J: r[p], BobID: r[p+1]}
		if r[1] == 1 {
			d = incremental.Delta{Batch: r[0], J: r[2], BobID: r[3], I: r[p], AliceID: r[p+1]}
		}
		out = append(out, d)
	}
	return out, nil
}

// ints appends the integers of the array at off to dst, written any way
// encoding/json takes an array of integers.
func (d *pageDecoder) ints(dst []int) ([]int, error) {
	if dst, ok := d.canonical(dst); ok {
		return dst, nil
	}
	if err := d.expect('['); err != nil {
		return nil, err
	}
	if d.ws() == ']' {
		d.off++
		return dst, nil
	}
	for {
		v, err := d.integer()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		switch d.ws() {
		case ',':
			d.off++
		case ']':
			d.off++
			return dst, nil
		default:
			return nil, d.errorf("want ',' or ']'")
		}
	}
}

// canonical appends the integers of the array at off to dst if it is
// written as appendDeltasPage writes one — "[n,n,…]", no whitespace, each
// n an integer of at most 18 digits without a leading zero — and reports
// whether it was; if not, off has not moved, and the general path reads
// the array from its start into dst as it was.
func (d *pageDecoder) canonical(dst []int) ([]int, bool) {
	buf, off := d.buf, d.off
	if off >= len(buf) || buf[off] != '[' {
		return dst, false
	}
	for {
		off++
		neg := off < len(buf) && buf[off] == '-'
		if neg {
			off++
		}
		start := off
		v := 0
		for ; off < len(buf) && buf[off]-'0' <= 9; off++ {
			v = v*10 + int(buf[off]-'0')
		}
		if n := off - start; n == 0 || n > 18 || n > 1 && buf[start] == '0' || off == len(buf) {
			return dst, false
		}
		if neg {
			v = -v
		}
		dst = append(dst, v)
		switch buf[off] {
		case ']':
			d.off = off + 1
			return dst, true
		case ',':
		default:
			return dst, false
		}
	}
}

// integer reads a JSON number that is an int: no fraction, no exponent,
// no overflow.
func (d *pageDecoder) integer() (int, error) {
	d.ws()
	buf, start, off := d.buf, d.off, d.off
	neg := off < len(buf) && buf[off] == '-'
	if neg {
		off++
	}
	digits := off
	var u uint64
	for ; off < len(buf); off++ {
		c := buf[off] - '0'
		if c > 9 {
			break
		}
		if u > (1<<63)/10 {
			return 0, d.errorf("integer overflows an int")
		}
		u = u*10 + uint64(c)
	}
	d.off = off
	switch {
	case off == digits:
		return 0, d.errorf("want an integer")
	case buf[digits] == '0' && off > digits+1:
		return 0, d.errorf("leading zero")
	case off < len(buf) && (buf[off] == '.' || buf[off] == 'e' || buf[off] == 'E'):
		return 0, d.errorf("%s… is not an integer", buf[start:off])
	case neg && u > 1<<63, !neg && u > 1<<63-1:
		return 0, d.errorf("%s overflows an int", buf[start:off])
	case neg:
		return int(-u), nil
	}
	return int(u), nil
}

// str reads a JSON string. One without escapes that is valid UTF-8 is its
// bytes; any other is decoded by encoding/json, which alone says how an
// escape or an invalid byte reads.
func (d *pageDecoder) str() (string, error) {
	if d.ws() != '"' {
		return "", d.errorf("want a string")
	}
	start := d.off
	d.off++
	plain := true
	for ; d.off < len(d.buf); d.off++ {
		switch c := d.buf[d.off]; {
		case c == '"':
			d.off++
			raw := d.buf[start+1 : d.off-1]
			if plain && utf8.Valid(raw) {
				return string(raw), nil
			}
			var s string
			if err := json.Unmarshal(d.buf[start:d.off], &s); err != nil {
				return "", d.errorf("%v", err)
			}
			return s, nil
		case c < 0x20:
			return "", d.errorf("control character in a string")
		case c == '\\':
			plain = false
			if d.off++; d.off == len(d.buf) {
				break
			}
			switch d.buf[d.off] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if d.off+4 >= len(d.buf) {
					return "", d.errorf("short \\u escape")
				}
				for _, h := range d.buf[d.off+1 : d.off+5] {
					if !strings.ContainsRune("0123456789abcdefABCDEF", rune(h)) {
						return "", d.errorf("bad \\u escape")
					}
				}
				d.off += 4
			default:
				return "", d.errorf("bad escape")
			}
		}
	}
	return "", d.errorf("unterminated string")
}

// skip consumes any one JSON value, an unknown key's, as encoding/json
// reads it: it alone says what a valid value is.
func (d *pageDecoder) skip() error {
	var v json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(d.buf[d.off:]))
	if err := dec.Decode(&v); err != nil {
		return d.errorf("%v", err)
	}
	d.off += int(dec.InputOffset())
	return nil
}
