package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// csvParser holds the header resolution and per-row decoding behind
// ReadCSV, ReadCSVDropMissing and Stream.ReadAll: one place validates
// cells against the schema and numbers error messages by CSV row.
type csvParser struct {
	schema      *Schema
	cr          *csv.Reader
	colFor      []int // attribute index → CSV column
	entityCol   int
	classCol    int
	dropMissing bool
	rowNum      int
	dropped     int
	nextID      int
}

func newCSVParser(schema *Schema, r io.Reader, dropMissing bool) (*csvParser, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	p := &csvParser{
		schema:      schema,
		cr:          cr,
		colFor:      make([]int, schema.Len()),
		entityCol:   -1,
		classCol:    -1,
		dropMissing: dropMissing,
		rowNum:      1,
	}
	for i := range p.colFor {
		p.colFor[i] = -1
	}
	for col, name := range header {
		switch name {
		case csvEntityColumn:
			p.entityCol = col
		case csvClassColumn:
			p.classCol = col
		default:
			idx, ok := schema.Index(name)
			if !ok {
				return nil, fmt.Errorf("dataset: CSV column %q not in schema", name)
			}
			p.colFor[idx] = col
		}
	}
	for i, col := range p.colFor {
		if col == -1 {
			return nil, fmt.Errorf("dataset: CSV is missing attribute %q", schema.Attr(i).Name)
		}
	}
	return p, nil
}

// next parses one record; ok is false at end of input.
func (p *csvParser) next() (rec Record, ok bool, err error) {
	for {
		row, err := p.cr.Read()
		if err == io.EOF {
			return Record{}, false, nil
		}
		if err != nil {
			return Record{}, false, fmt.Errorf("dataset: reading CSV row %d: %w", p.rowNum, err)
		}
		p.rowNum++
		// FieldsPerRecord is -1 (headers may omit entity/class columns),
		// so a truncated trailing row arrives short instead of erroring
		// in the csv layer; reject it before any cell access.
		for _, col := range p.colFor {
			if col >= len(row) {
				return Record{}, false, fmt.Errorf("dataset: row %d: %d columns, need at least %d", p.rowNum, len(row), col+1)
			}
		}
		if p.entityCol >= len(row) {
			return Record{}, false, fmt.Errorf("dataset: row %d: %d columns, entity_id column is %d", p.rowNum, len(row), p.entityCol+1)
		}
		if p.dropMissing {
			skip := false
			for _, col := range p.colFor {
				if row[col] == Missing {
					skip = true
					break
				}
			}
			if skip {
				p.dropped++
				continue
			}
		}
		rec := Record{EntityID: p.nextID, Cells: make([]Cell, p.schema.Len())}
		if p.entityCol >= 0 {
			id, err := strconv.Atoi(row[p.entityCol])
			if err != nil {
				return Record{}, false, fmt.Errorf("dataset: row %d: bad entity_id %q", p.rowNum, row[p.entityCol])
			}
			rec.EntityID = id
		}
		if p.classCol >= 0 && p.classCol < len(row) {
			rec.Class = row[p.classCol]
		}
		for i := 0; i < p.schema.Len(); i++ {
			raw := row[p.colFor[i]]
			attr := p.schema.Attr(i)
			if attr.Kind == Continuous {
				v, err := parseFinite(raw)
				if err != nil {
					return Record{}, false, fmt.Errorf("dataset: row %d, attribute %q: bad number %q", p.rowNum, attr.Name, raw)
				}
				rec.Cells[i] = Cell{Num: v}
				continue
			}
			n := attr.Hierarchy.Lookup(raw)
			if n == nil || !n.IsLeaf() {
				return Record{}, false, fmt.Errorf("dataset: row %d, attribute %q: %q is not a leaf of the hierarchy", p.rowNum, attr.Name, raw)
			}
			rec.Cells[i] = Cell{Node: n}
		}
		p.nextID++
		return rec, true, nil
	}
}

// parseFinite is strconv.ParseFloat less the spellings of NaN and ±Inf it
// also takes: the anonymizer's interval search, the fixed-point encoder and
// the SMC value bound have no meaning for a non-finite cell or bound.
func parseFinite(raw string) (float64, error) {
	v, err := strconv.ParseFloat(raw, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%q is not a finite number", raw)
	}
	return v, err
}

// StreamOptions is OpenStream's options. It has none: a relation is read
// whole, as ReadCSV reads it.
type StreamOptions struct{}

// Stream is a CSV relation opened against a schema, to be read by ReadAll.
type Stream struct {
	schema *Schema
	f      *os.File
}

// OpenStream opens path for reading against the schema. Close the stream
// to release the file.
func OpenStream(schema *Schema, path string, _ StreamOptions) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return &Stream{schema: schema, f: f}, nil
}

// ReadAll reads the whole relation, with ReadCSV's rules and errors.
func (s *Stream) ReadAll() (*Dataset, error) {
	d, _, err := readCSV(s.schema, s.f, false)
	return d, err
}

// Close releases the file.
func (s *Stream) Close() error { return s.f.Close() }
