package experiment

import (
	"fmt"
	"io"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/distance"
	"pprl/internal/index"
	"pprl/internal/vgh"
)

// WorkedExampleData reconstructs Section III of the paper: relations R and
// S of Tables I and II, their handcrafted 3-anonymous and 2-anonymous
// generalizations, and the classifier (θ₁ = 0.5 Hamming on Education,
// θ₂ = 0.2 Euclidean on WorkHrs with normFactor 98).
type WorkedExampleData struct {
	Education *vgh.Hierarchy
	R, S      *anonymize.Result
	RRecords  []vgh.Sequence
	SRecords  []vgh.Sequence
	Rule      *blocking.Rule
}

// NewWorkedExample builds the Section III fixture.
func NewWorkedExample() (*WorkedExampleData, error) {
	edu := vgh.MustParse("education", `ANY
  Secondary
    Junior Sec.
      9th
      10th
    Senior Sec.
      11th
      12th
  University
    Bachelors
    Grad School
      Masters
      Doctorate
`)
	cat := func(name string) vgh.Value { return vgh.CatValue(edu.MustLookup(name)) }
	num := func(lo, hi float64) vgh.Value { return vgh.NumValue(vgh.Interval{Lo: lo, Hi: hi}) }
	pt := func(v float64) vgh.Value { return vgh.NumValue(vgh.Point(v)) }

	d := &WorkedExampleData{Education: edu}
	d.RRecords = []vgh.Sequence{
		{cat("Masters"), pt(35)}, {cat("Masters"), pt(36)}, {cat("Masters"), pt(36)},
		{cat("9th"), pt(28)}, {cat("10th"), pt(22)}, {cat("12th"), pt(33)},
	}
	d.SRecords = []vgh.Sequence{
		{cat("Masters"), pt(36)}, {cat("Masters"), pt(35)}, {cat("Bachelors"), pt(27)},
		{cat("11th"), pt(33)}, {cat("11th"), pt(22)}, {cat("12th"), pt(27)},
	}
	d.R = &anonymize.Result{
		Method: "paper", K: 3, QIDs: []int{0, 1},
		Classes: []anonymize.Class{
			{Sequence: vgh.Sequence{cat("Masters"), num(35, 37)}, Members: []int{0, 1, 2}},
			{Sequence: vgh.Sequence{cat("Secondary"), num(1, 35)}, Members: []int{3, 4, 5}},
		},
		ClassOf: []int{0, 0, 0, 1, 1, 1},
	}
	d.S = &anonymize.Result{
		Method: "paper", K: 2, QIDs: []int{0, 1},
		Classes: []anonymize.Class{
			{Sequence: vgh.Sequence{cat("Masters"), num(35, 37)}, Members: []int{0, 1}},
			{Sequence: vgh.Sequence{cat("ANY"), num(1, 35)}, Members: []int{2, 3}},
			{Sequence: vgh.Sequence{cat("Senior Sec."), num(1, 35)}, Members: []int{4, 5}},
		},
		ClassOf: []int{0, 0, 1, 1, 2, 2},
	}
	rule, err := blocking.NewRule(
		[]distance.Metric{distance.Hamming{}, distance.Euclidean{Norm: 98}},
		[]float64{0.5, 0.2},
	)
	if err != nil {
		return nil, err
	}
	d.Rule = rule
	return d, nil
}

// WriteWorkedExample renders the Section III walkthrough (Tables I & II):
// both generalized relations and what the slack rule labels.
func WriteWorkedExample(out io.Writer) error {
	d, err := NewWorkedExample()
	if err != nil {
		return err
	}
	res, err := WorkedExample()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "example — Section III worked example (Tables I & II)")
	fmt.Fprintln(out, "R' classes:")
	for _, c := range d.R.Classes {
		fmt.Fprintf(out, "  %d× %s\n", c.Size(), c.Sequence)
	}
	fmt.Fprintln(out, "S' classes:")
	for _, c := range d.S.Classes {
		fmt.Fprintf(out, "  %d× %s\n", c.Size(), c.Sequence)
	}
	_, err = fmt.Fprintf(out, "slack rule labels: %d matched, %d mismatched, %d unknown of %d pairs (blocking efficiency %.0f%%)\n\n",
		res.MatchedPairs, res.NonMatchedPairs, res.UnknownPairs, res.TotalPairs(), 100*res.Efficiency())
	return err
}

// WorkedExample blocks the Section III fixture and returns the result
// (expected: 6 matched, 12 mismatched, 18 unknown record pairs — a 50%
// blocking efficiency).
func WorkedExample() (*blocking.Result, error) {
	d, err := NewWorkedExample()
	if err != nil {
		return nil, err
	}
	return index.Block(d.R, d.S, d.Rule)
}
