package dpblock

import (
	"fmt"

	"pprl/internal/anonymize"
	"pprl/internal/dataset"
	"pprl/internal/vgh"
)

// LevelMethodName is the anonymizer name plain (noise-free) level-binned
// views are published under.
const LevelMethodName = "bin"

// AppendBinRecord appends record i's depth-level bin to seq: one VGH
// ancestor node (categorical) or interval bucket (continuous) per QID. The
// mapping is a pure function of the record's own cells — it never looks
// at the rest of the dataset — which is the property the incremental
// subsystem rests on: a record's bin is fixed the moment it arrives and
// appending more records never moves it. A caller that keeps only some
// bins reuses one buffer for the rest.
func AppendBinRecord(seq vgh.Sequence, d *dataset.Dataset, qids []int, i, level int) (vgh.Sequence, error) {
	rec := d.Record(i)
	for _, q := range qids {
		attr := d.Schema().Attr(q)
		switch attr.Kind {
		case dataset.Categorical:
			seq = append(seq, vgh.CatValue(attr.Hierarchy.GeneralizeToDepth(rec.Cells[q].Node, level)))
		case dataset.Continuous:
			seq = append(seq, vgh.NumValue(attr.Intervals.At(rec.Cells[q].Num, level)))
		default:
			return nil, fmt.Errorf("dpblock: attribute %q has unknown kind", attr.Name)
		}
	}
	return seq, nil
}

// binSequences bins every record of d at the given depth.
func binSequences(d *dataset.Dataset, qids []int, level int) ([]vgh.Sequence, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("dpblock: empty dataset")
	}
	if len(qids) == 0 {
		return nil, fmt.Errorf("dpblock: empty quasi-identifier set")
	}
	for _, q := range qids {
		if q < 0 || q >= d.Schema().Len() {
			return nil, fmt.Errorf("dpblock: QID index %d out of range", q)
		}
	}
	seqs := make([]vgh.Sequence, d.Len())
	for i := 0; i < d.Len(); i++ {
		seq, err := AppendBinRecord(make(vgh.Sequence, 0, len(qids)), d, qids, i, level)
		if err != nil {
			return nil, err
		}
		seqs[i] = seq
	}
	return seqs, nil
}

// LevelBinner is the noise-free sibling of Binner: the same deterministic
// fixed-depth binning, published as-is with no DP release and no class-
// size promise. It exists for the incremental subsystem, whose
// equivalence contract ("deltas across K batches == one frozen run on the
// union") requires an anonymizer whose output for a record is insensitive
// to insertions — none of the k-anonymous methods have that property, but
// fixed-level binning does by construction. It satisfies
// anonymize.Anonymizer so a frozen comparison run can hand it straight to
// core.Link; the k argument is ignored.
type LevelBinner struct {
	level int
}

// NewLevelBinner validates the depth (0 selects DefaultLevel) and returns
// a binner.
func NewLevelBinner(level int) (*LevelBinner, error) {
	if level < 0 {
		return nil, fmt.Errorf("dpblock: level must be ≥ 0, got %d", level)
	}
	if level == 0 {
		level = DefaultLevel
	}
	return &LevelBinner{level: level}, nil
}

// Level returns the binning depth (defaults resolved).
func (b *LevelBinner) Level() int { return b.level }

// Name identifies the method in experiment output and view files.
func (b *LevelBinner) Name() string { return LevelMethodName }

// Anonymize bins every record at the configured depth. K is 1: level
// binning makes no anonymity promise of its own (classes may hold a
// single record), which callers must weigh exactly as they do for the DP
// binner minus its noised release.
func (b *LevelBinner) Anonymize(d *dataset.Dataset, qids []int, k int) (*anonymize.Result, error) {
	seqs, err := binSequences(d, qids, b.level)
	if err != nil {
		return nil, err
	}
	return anonymize.BuildResult(LevelMethodName, 1, qids, seqs, nil), nil
}
