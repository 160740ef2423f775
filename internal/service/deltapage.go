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
// The page is the JSON object of DeltasResponse with each delta as five
// integers in Delta's field order; encoding/json reads it into any shape
// with a [][]int "deltas".

// pagePool holds the buffers delta pages are encoded in (≈ 70 KB a page
// at paper scale).
var pagePool = sync.Pool{New: func() any { return new([]byte) }}

// appendDeltasPage appends the page {dataset, from, next, deltas} —
// deltas being the batches' deltas end to end — to buf as encoding/json
// writes it, less the encoder's final newline; an empty page has
// "deltas":[].
func appendDeltasPage(buf []byte, dataset string, from, next int, batches [][]incremental.Delta) []byte {
	id, _ := json.Marshal(dataset) // a string always encodes; this is json's escaping
	buf = append(append(buf, `{"dataset":`...), id...)
	buf = strconv.AppendInt(append(buf, `,"from":`...), int64(from), 10)
	buf = strconv.AppendInt(append(buf, `,"next":`...), int64(next), 10)
	buf = append(buf, `,"deltas":[`...)
	sep := ""
	for _, deltas := range batches {
		for _, d := range deltas {
			buf = strconv.AppendInt(append(append(buf, sep...), '['), int64(d.Batch), 10)
			buf = strconv.AppendInt(append(buf, ','), int64(d.I), 10)
			buf = strconv.AppendInt(append(buf, ','), int64(d.J), 10)
			buf = strconv.AppendInt(append(buf, ','), int64(d.AliceID), 10)
			buf = strconv.AppendInt(append(buf, ','), int64(d.BobID), 10)
			buf, sep = append(buf, ']'), ","
		}
	}
	return append(buf, "]}"...)
}

// MarshalJSON writes the page as the server does.
func (p DeltasResponse) MarshalJSON() ([]byte, error) {
	return appendDeltasPage(nil, p.Dataset, p.From, p.Next, [][]incremental.Delta{p.Deltas}), nil
}

// UnmarshalJSON reads a page without reflecting over its deltas. It takes
// what encoding/json takes into the page's shape — any whitespace and key
// order, keys matched as encoding/json matches them (exactly, else under
// case folding), unknown keys skipped, the last of a repeated key kept,
// null as no value — and refuses a delta that is not five integers, a
// number that is not an int, and bytes after the page. Deltas is sized
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

// deltas reads the deltas array, sized once: every delta opens with a
// '[', and takes at least "[0,0,0,0,0]", so the brackets left in the page,
// capped by its bytes left, bound its length.
func (d *pageDecoder) deltas() ([]incremental.Delta, error) {
	if err := d.expect('['); err != nil {
		return nil, err
	}
	rest := d.buf[d.off:]
	out := make([]incremental.Delta, 0, min(bytes.Count(rest, []byte{'['}), len(rest)/len("[0,0,0,0,0]")+1))
	if d.ws() == ']' {
		d.off++
		return out, nil
	}
	for {
		delta, ok := d.canonical()
		if !ok {
			var err error
			if delta, err = d.delta(len(out)); err != nil {
				return nil, err
			}
		}
		out = append(out, delta)
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

// canonical reads the delta at off if it is written as appendDeltasPage
// writes one — "[n,n,n,n,n]", no whitespace, each n an integer of at most
// 18 digits without a leading zero — and reports whether it was; if not,
// off has not moved, and the general path reads the delta from its start.
func (d *pageDecoder) canonical() (incremental.Delta, bool) {
	buf, off := d.buf, d.off
	if off >= len(buf) || buf[off] != '[' {
		return incremental.Delta{}, false
	}
	var row [5]int
	for k := range row {
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
		switch n := off - start; {
		case n == 0 || n > 18 || n > 1 && buf[start] == '0':
			return incremental.Delta{}, false
		case off == len(buf) || k < 4 && buf[off] != ',' || k == 4 && buf[off] != ']':
			return incremental.Delta{}, false
		case neg:
			v = -v
		}
		row[k] = v
	}
	d.off = off + 1
	return incremental.Delta{Batch: row[0], I: row[1], J: row[2], AliceID: row[3], BobID: row[4]}, true
}

// delta reads the x-th delta of the page, written any way encoding/json
// takes five integers.
func (d *pageDecoder) delta(x int) (incremental.Delta, error) {
	var row [5]int
	if err := d.expect('['); err != nil {
		return incremental.Delta{}, err
	}
	for k := range row {
		if k > 0 {
			if err := d.expect(','); err != nil {
				return incremental.Delta{}, d.errorf("delta %d: want 5 integers", x)
			}
		}
		v, err := d.integer()
		if err != nil {
			return incremental.Delta{}, err
		}
		row[k] = v
	}
	if err := d.expect(']'); err != nil {
		return incremental.Delta{}, d.errorf("delta %d: want 5 integers", x)
	}
	return incremental.Delta{Batch: row[0], I: row[1], J: row[2], AliceID: row[3], BobID: row[4]}, nil
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
