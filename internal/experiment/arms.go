package experiment

import "io"

// Report is the machine-readable result an arm keeps beside its table:
// the run fails unless Gate passes, and pprl-bench -json writes it.
type Report interface {
	Gate() error
	SetStamp(*Stamp)
	WriteJSON(io.Writer) error
}

// Arm is one entry of the suite: the ids of the artifacts it renders, in
// order, and what renders them — Tables, with the arm's Report where it
// keeps one, or Text for the worked example, which is prose.
type Arm struct {
	IDs    []string
	Tables func(Options) ([]*Table, Report, error)
	Text   func(io.Writer) error
}

// Arms is the suite in the order pprl-bench renders it: the worked
// example, the paper's figures, the ablations, and the two arms with
// reports.
var Arms = []Arm{
	{IDs: []string{"example"}, Text: WriteWorkedExample},
	{IDs: []string{"fig2"}, Tables: one(Fig2)},
	{IDs: []string{"fig3"}, Tables: one(Fig3)},
	{IDs: []string{"fig4"}, Tables: one(Fig4)},
	{IDs: []string{"fig5"}, Tables: one(Fig5)},
	{IDs: []string{"fig6", "fig7"}, Tables: func(o Options) ([]*Table, Report, error) {
		f6, f7, err := Fig6and7(o)
		return []*Table{f6, f7}, nil, err
	}},
	{IDs: []string{"fig8"}, Tables: one(Fig8)},
	{IDs: []string{"strategies"}, Tables: one(Strategies)},
	{IDs: []string{"anonymizers"}, Tables: one(Anonymizers)},
	{IDs: []string{"baselines"}, Tables: one(Baselines)},
	{IDs: []string{"diversity"}, Tables: one(Diversity)},
	{IDs: []string{"strings"}, Tables: one(Strings)},
	{IDs: []string{"bloom"}, Tables: one(Bloom)},
	{IDs: []string{"timing"}, Tables: one(func(o Options) (*Table, error) { return Timing(o, 1024, 256) })},
	{IDs: []string{"tier"}, Tables: func(o Options) ([]*Table, Report, error) {
		rep, t, err := TierPerf(o)
		return []*Table{t}, rep, err
	}},
	{IDs: []string{"dp"}, Tables: func(o Options) ([]*Table, Report, error) {
		rep, t, err := DPPerf(o)
		return []*Table{t}, rep, err
	}},
}

// one adapts a single-table artifact to Arm.Tables.
func one(f func(Options) (*Table, error)) func(Options) ([]*Table, Report, error) {
	return func(o Options) ([]*Table, Report, error) {
		t, err := f(o)
		return []*Table{t}, nil, err
	}
}
