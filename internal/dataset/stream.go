package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// csvParser holds the header resolution and per-row decoding shared by
// the materializing reader (ReadCSV) and the chunked Stream: one place
// validates cells against the schema and numbers error messages by CSV
// row.
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

// StreamOptions parameterizes a chunked dataset stream.
type StreamOptions struct {
	// ChunkRecords bounds the records resident per Next call — the
	// stream's explicit memory budget. 0 selects DefaultChunkRecords.
	ChunkRecords int
	// DropMissing silently skips rows with a Missing ("?") marker in any
	// schema column, like ReadCSVDropMissing.
	DropMissing bool
}

// DefaultChunkRecords is the chunk size when StreamOptions leaves it 0.
const DefaultChunkRecords = 4096

// Stream is a bounded-memory CSV reader: records arrive in chunks of at
// most ChunkRecords, so a holder can encode or ship a relation far larger
// than RAM without ever materializing a Dataset. The chunk slice is
// reused across Next calls — copy its elements out if they must outlive
// the next call (the Records themselves are freshly allocated and safe to
// retain).
type Stream struct {
	p      *csvParser
	chunk  []Record
	closer io.Closer
	err    error
}

// OpenStream opens path for chunked streaming against the schema. Close
// the stream to release the file.
func OpenStream(schema *Schema, path string, opts StreamOptions) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	s, err := NewStream(schema, f, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.closer = f
	return s, nil
}

// NewStream wraps an io.Reader as a chunked stream; the header is parsed
// eagerly so schema mismatches surface before the first Next.
func NewStream(schema *Schema, r io.Reader, opts StreamOptions) (*Stream, error) {
	p, err := newCSVParser(schema, r, opts.DropMissing)
	if err != nil {
		return nil, err
	}
	n := opts.ChunkRecords
	if n <= 0 {
		n = DefaultChunkRecords
	}
	return &Stream{p: p, chunk: make([]Record, 0, n)}, nil
}

// Schema returns the stream's schema.
func (s *Stream) Schema() *Schema { return s.p.schema }

// Next returns the next chunk of records, at most ChunkRecords long, or
// io.EOF once the input is drained. The returned slice is reused by the
// following Next call.
func (s *Stream) Next() ([]Record, error) {
	if s.err != nil {
		return nil, s.err
	}
	s.chunk = s.chunk[:0]
	for len(s.chunk) < cap(s.chunk) {
		rec, ok, err := s.p.next()
		if err != nil {
			s.err = err
			return nil, err
		}
		if !ok {
			break
		}
		s.chunk = append(s.chunk, rec)
	}
	if len(s.chunk) == 0 {
		s.err = io.EOF
		return nil, io.EOF
	}
	return s.chunk, nil
}

// Dropped reports rows skipped so far under DropMissing.
func (s *Stream) Dropped() int { return s.p.dropped }

// Close releases the underlying file, if the stream owns one.
func (s *Stream) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// ReadAll drains the stream into a materialized Dataset, for pipeline
// stages (anonymization, blocking) that need the whole relation resident.
// Unlike ReadCSV it never holds parser row state and the final Dataset at
// once beyond one chunk.
func (s *Stream) ReadAll() (*Dataset, error) {
	d := New(s.p.schema)
	for {
		chunk, err := s.Next()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return nil, err
		}
		for _, rec := range chunk {
			if err := d.Append(rec); err != nil {
				return nil, fmt.Errorf("dataset: %w", err)
			}
		}
	}
}
