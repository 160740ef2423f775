package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"pprl/internal/vgh"
)

// Cell is one attribute value of a record: a taxonomy leaf for categorical
// attributes or a number for continuous ones. Exactly one field is
// meaningful, determined by the attribute's Kind.
type Cell struct {
	Node *vgh.Node // categorical leaf; nil for continuous cells
	Num  float64   // continuous value; ignored when Node != nil
}

// Value returns the cell as a fully specialized vgh.Value.
func (c Cell) Value() vgh.Value {
	if c.Node != nil {
		return vgh.CatValue(c.Node)
	}
	return vgh.NumValue(vgh.Point(c.Num))
}

func (c Cell) String() string {
	return c.Value().String()
}

// Record is one row. EntityID identifies the underlying real-world entity:
// two records in different relations with the same EntityID describe the
// same entity, which is how experiments construct ground truth overlap
// (the d3 partition shared by D1 and D2 in the paper).
type Record struct {
	EntityID int
	Cells    []Cell
	// Class is an optional label (e.g. the Adult income class) used by
	// classification-aware anonymizers such as TDS.
	Class string
}

// Value returns the fully specialized vgh.Value of attribute i.
func (r Record) Value(i int) vgh.Value { return r.Cells[i].Value() }

// Dataset is an in-memory relation: a schema plus records. The zero value
// is not usable; construct with New.
type Dataset struct {
	schema  *Schema
	records []Record
}

// New creates an empty dataset over the schema.
func New(schema *Schema) *Dataset {
	return &Dataset{schema: schema}
}

// Schema returns the dataset's schema.
func (d *Dataset) Schema() *Schema { return d.schema }

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.records) }

// Record returns the record at position i.
func (d *Dataset) Record(i int) Record { return d.records[i] }

// Records returns the backing slice; callers must not modify it.
func (d *Dataset) Records() []Record { return d.records }

// Append validates r against the schema and adds it.
func (d *Dataset) Append(r Record) error {
	if len(r.Cells) != d.schema.Len() {
		return fmt.Errorf("record has %d cells, schema has %d attributes", len(r.Cells), d.schema.Len())
	}
	for i, c := range r.Cells {
		attr := d.schema.Attr(i)
		switch attr.Kind {
		case Categorical:
			if c.Node == nil {
				return fmt.Errorf("attribute %q: categorical cell has no node", attr.Name)
			}
			if !c.Node.IsLeaf() {
				return fmt.Errorf("attribute %q: value %q is not a leaf", attr.Name, c.Node.Value)
			}
			if attr.Hierarchy.Lookup(c.Node.Value) != c.Node {
				return fmt.Errorf("attribute %q: node %q belongs to a different hierarchy", attr.Name, c.Node.Value)
			}
		case Continuous:
			if c.Node != nil {
				return fmt.Errorf("attribute %q: continuous cell has a node", attr.Name)
			}
			if math.IsNaN(c.Num) || math.IsInf(c.Num, 0) {
				return fmt.Errorf("attribute %q: %v is not a finite number", attr.Name, c.Num)
			}
		}
	}
	d.records = append(d.records, r)
	return nil
}

// MustAppend is Append that panics, for fixtures.
func (d *Dataset) MustAppend(r Record) {
	if err := d.Append(r); err != nil {
		panic(err)
	}
}

// Clone returns a deep-enough copy: records are copied, cells are value
// types, and the schema (immutable) is shared.
func (d *Dataset) Clone() *Dataset {
	out := New(d.schema)
	out.records = make([]Record, len(d.records))
	copy(out.records, d.records)
	return out
}

// Shuffle permutes records in place using the given source, for
// reproducible partitioning.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.records), func(i, j int) {
		d.records[i], d.records[j] = d.records[j], d.records[i]
	})
}

// Slice returns a dataset viewing records [lo, hi). The records are
// shared with d; treat both as read-only afterwards or Clone first.
func (d *Dataset) Slice(lo, hi int) *Dataset {
	return &Dataset{schema: d.schema, records: d.records[lo:hi]}
}

// Concat returns a new dataset holding d's records followed by other's.
// Both datasets must share the same schema.
func (d *Dataset) Concat(other *Dataset) (*Dataset, error) {
	if other.schema != d.schema {
		return nil, fmt.Errorf("dataset: Concat requires identical schemas")
	}
	out := New(d.schema)
	out.records = make([]Record, 0, len(d.records)+len(other.records))
	out.records = append(out.records, d.records...)
	out.records = append(out.records, other.records...)
	return out, nil
}

// SplitOverlap reproduces the paper's experimental construction: the
// dataset is shuffled and cut into three equal parts d1, d2, d3, and the
// function returns D1 = d1 ∪ d3 and D2 = d2 ∪ d3. Records in the shared
// part keep their EntityID in both outputs, so D1 ∩ D2 is non-empty by
// construction regardless of the matching thresholds.
func SplitOverlap(d *Dataset, rng *rand.Rand) (d1, d2 *Dataset) {
	shuffled := d.Clone()
	shuffled.Shuffle(rng)
	third := shuffled.Len() / 3
	a := shuffled.Slice(0, third)
	b := shuffled.Slice(third, 2*third)
	c := shuffled.Slice(2*third, 3*third)
	d1, err := a.Concat(c)
	if err != nil {
		panic(err) // same schema by construction
	}
	d2, err = b.Concat(c)
	if err != nil {
		panic(err)
	}
	return d1, d2
}
