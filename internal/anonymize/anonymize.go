// Package anonymize implements the k-anonymization algorithms evaluated in
// the paper's Section VI-A: DataFly (Sweeney's bottom-up full-domain
// method), TDS (Fung et al.'s top-down specialization driven by
// information gain), and the paper's own maximum-entropy top-down method,
// which heuristically maximizes the number of distinct generalization
// sequences and therefore blocking efficiency. A Mondrian-style
// multidimensional partitioner (LeFevre et al., cited in related work) is
// included as an extension.
//
// All algorithms share the same contract: given a dataset, a
// quasi-identifier attribute subset and an anonymity requirement k, they
// return one generalization sequence per record such that (modulo
// DataFly's bounded suppression) at least k records share every sequence.
package anonymize

import (
	"fmt"
	"sort"

	"pprl/internal/dataset"
	"pprl/internal/vgh"
)

// Class is one equivalence class of the anonymized output: the set of
// records that share a generalization sequence.
type Class struct {
	// Sequence is the shared generalization, one value per QID in the
	// order of Result.QIDs.
	Sequence vgh.Sequence
	// Members are record positions in the input dataset.
	Members []int
}

// Size returns the number of records in the class.
func (c Class) Size() int { return len(c.Members) }

// Result is an anonymized view of a dataset: the published artifact a
// data holder releases. It intentionally exposes only generalization
// sequences and class membership counts, never raw cells.
type Result struct {
	// Method names the algorithm that produced the view.
	Method string
	// K is the anonymity requirement the view was built under.
	K int
	// QIDs are the generalized attribute positions, in sequence order.
	QIDs []int
	// Classes are the equivalence classes, in deterministic order.
	Classes []Class
	// ClassOf maps record position -> index into Classes.
	ClassOf []int
	// Suppressed lists records DataFly removed into the fully general
	// class instead of meeting k by generalization; empty for the
	// top-down methods. Suppressed records are members of the root-
	// sequence class and are exempt from the k-size guarantee.
	Suppressed []int
	// DP carries the differential-privacy release parameters when the
	// view was published by the DP binner (dpblock); nil for the
	// k-anonymous methods.
	DP *DPInfo
}

// DPInfo records the (ε, δ) release a DP-binned view was published
// under. The k-anonymous class-size guarantee does not apply to such
// views (classes are deterministic bins, possibly of size 1); instead
// the published bin sizes — NoisedCounts — carry calibrated one-sided
// Laplace noise, and the matcher must treat the surplus over the true
// membership as dummy records a faithful deployment would pad in.
type DPInfo struct {
	// Epsilon is the privacy budget this release consumed.
	Epsilon float64
	// Delta is the truncation failure mass of the one-sided mechanism.
	Delta float64
	// Seed keys the deterministic per-bin noise draws and the padding
	// permutation. It is holder-private: WriteView never serializes it
	// (a recipient holding the seed could recompute and subtract every
	// bin's noise), so views parsed from the wire carry Seed 0. Only
	// in-process views — the single-trust-domain engine — retain it.
	Seed int64
	// Level is the hierarchy depth records were binned at (0 = root).
	Level int
	// NoisedCounts[i] is the published size of Classes[i]: the true
	// membership plus non-negative noise, so padding only ever adds
	// dummies and never hides a real member. Before such a view leaves
	// its holder, dpblock.Pad stretches each member list to exactly this
	// count with dummy handles, so the wire form never reveals the true
	// size next to the noised one.
	NoisedCounts []int64
}

// NumSequences returns the number of distinct generalization sequences,
// the quality metric of the paper's Figure 2.
func (r *Result) NumSequences() int { return len(r.Classes) }

// SequenceOf returns the generalization sequence of record i.
func (r *Result) SequenceOf(i int) vgh.Sequence { return r.Classes[r.ClassOf[i]].Sequence }

// MinClassSize returns the smallest non-suppressed class size; for a valid
// k-anonymization it is ≥ k.
func (r *Result) MinClassSize() int {
	suppressedClass := -1
	if len(r.Suppressed) > 0 {
		suppressedClass = r.ClassOf[r.Suppressed[0]]
	}
	min := -1
	for i, c := range r.Classes {
		if i == suppressedClass {
			continue
		}
		if min == -1 || c.Size() < min {
			min = c.Size()
		}
	}
	return min
}

// AvgClassSize returns the mean equivalence-class size.
func (r *Result) AvgClassSize() float64 {
	if len(r.Classes) == 0 {
		return 0
	}
	total := 0
	for _, c := range r.Classes {
		total += c.Size()
	}
	return float64(total) / float64(len(r.Classes))
}

// Validate checks the structural invariants: every record belongs to
// exactly one class, sequences have one value per QID, every sequence
// value covers the member's original value (generalizations are accurate,
// the property the blocking step's soundness rests on), and all
// non-suppressed classes meet k.
func (r *Result) Validate(d *dataset.Dataset) error {
	if len(r.ClassOf) != d.Len() {
		return fmt.Errorf("anonymize: ClassOf covers %d records, dataset has %d", len(r.ClassOf), d.Len())
	}
	seen := make([]bool, d.Len())
	for ci, c := range r.Classes {
		if len(c.Sequence) != len(r.QIDs) {
			return fmt.Errorf("anonymize: class %d sequence has %d values, want %d", ci, len(c.Sequence), len(r.QIDs))
		}
		for _, m := range c.Members {
			if seen[m] {
				return fmt.Errorf("anonymize: record %d in multiple classes", m)
			}
			seen[m] = true
			if r.ClassOf[m] != ci {
				return fmt.Errorf("anonymize: record %d ClassOf mismatch", m)
			}
			for j, qid := range r.QIDs {
				orig := d.Record(m).Value(qid)
				if !c.Sequence[j].Covers(orig) {
					return fmt.Errorf("anonymize: class %d value %v does not cover record %d's %v (attr %s)",
						ci, c.Sequence[j], m, orig, d.Schema().Attr(qid).Name)
				}
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("anonymize: record %d not in any class", i)
		}
	}
	if min := r.MinClassSize(); min != -1 && min < r.K && len(r.Classes) > 1 {
		return fmt.Errorf("anonymize: min class size %d violates k=%d", min, r.K)
	}
	return nil
}

// Anonymizer is a k-anonymization algorithm.
type Anonymizer interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Anonymize generalizes the QID attributes of d under requirement k.
	Anonymize(d *dataset.Dataset, qids []int, k int) (*Result, error)
}

// BuildResult groups records by the sequence assigned to them and fills
// the Result bookkeeping deterministically (classes sorted by key). It is
// the assembly step shared by every anonymizer in this package and by
// external binning strategies (dpblock's deterministic VGH binner).
func BuildResult(method string, k int, qids []int, seqs []vgh.Sequence, suppressed []int) *Result {
	return buildResult(method, k, qids, seqs, suppressed)
}

// buildResult groups records by the sequence assigned to them and fills
// the Result bookkeeping deterministically (classes sorted by key).
func buildResult(method string, k int, qids []int, seqs []vgh.Sequence, suppressed []int) *Result {
	byKey := make(map[string]int)
	res := &Result{Method: method, K: k, QIDs: qids, ClassOf: make([]int, len(seqs)), Suppressed: suppressed}
	type entry struct {
		key string
		idx int
	}
	var order []entry
	for i, s := range seqs {
		key := s.Key()
		ci, ok := byKey[key]
		if !ok {
			ci = len(res.Classes)
			byKey[key] = ci
			res.Classes = append(res.Classes, Class{Sequence: s})
			order = append(order, entry{key: key, idx: ci})
		}
		res.Classes[ci].Members = append(res.Classes[ci].Members, i)
		res.ClassOf[i] = ci
	}
	// Deterministic class order: sort by key, remap.
	sort.Slice(order, func(a, b int) bool { return order[a].key < order[b].key })
	remap := make([]int, len(res.Classes))
	newClasses := make([]Class, len(res.Classes))
	for newIdx, e := range order {
		remap[e.idx] = newIdx
		newClasses[newIdx] = res.Classes[e.idx]
	}
	res.Classes = newClasses
	for i := range res.ClassOf {
		res.ClassOf[i] = remap[res.ClassOf[i]]
	}
	return res
}

// buildPartitions is buildResult for an engine that ends up holding the
// classes themselves — distinct sequences, ascending member lists covering
// n records: one key is formatted per class, not per record.
func buildPartitions(method string, k int, qids []int, parts []*partition, n int) *Result {
	keys := make(map[*partition]string, len(parts))
	for _, p := range parts {
		keys[p] = p.seq.Key()
	}
	sort.Slice(parts, func(a, b int) bool { return keys[parts[a]] < keys[parts[b]] })
	res := &Result{Method: method, K: k, QIDs: qids, Classes: make([]Class, len(parts)), ClassOf: make([]int, n)}
	for ci, p := range parts {
		res.Classes[ci] = Class{Sequence: p.seq, Members: p.members}
		for _, m := range p.members {
			res.ClassOf[m] = ci
		}
	}
	return res
}

// validateInputs rejects degenerate parameters shared by all algorithms.
func validateInputs(d *dataset.Dataset, qids []int, k int) error {
	if d.Len() == 0 {
		return fmt.Errorf("anonymize: empty dataset")
	}
	if len(qids) == 0 {
		return fmt.Errorf("anonymize: empty quasi-identifier set")
	}
	for _, q := range qids {
		if q < 0 || q >= d.Schema().Len() {
			return fmt.Errorf("anonymize: QID index %d out of range", q)
		}
	}
	if k < 1 {
		return fmt.Errorf("anonymize: k must be ≥ 1, got %d", k)
	}
	if k > d.Len() {
		return fmt.Errorf("anonymize: k=%d exceeds dataset size %d", k, d.Len())
	}
	return nil
}

// rootSequence returns the fully generalized sequence for the QID set.
func rootSequence(s *dataset.Schema, qids []int) vgh.Sequence {
	seq := make(vgh.Sequence, len(qids))
	for i, q := range qids {
		seq[i] = s.Attr(q).RootValue()
	}
	return seq
}
