package blocking

import (
	"math/rand"
	"reflect"
	"testing"

	"pprl/internal/anonymize"
	"pprl/internal/dataset"
	"pprl/internal/vgh"
)

// TestParallelMatchesSerial forces both execution paths over the same
// input and requires identical labels and counts.
func TestParallelMatchesSerial(t *testing.T) {
	edu := vgh.MustParse("edu", `ANY
  L
    a
    b
    c
  H
    d
    e
    f
`)
	ih := vgh.MustIntervalHierarchy("num", 0, 64, 2, 3)
	schema := dataset.MustSchema(dataset.CatAttr(edu), dataset.NumAttr(ih))
	rng := rand.New(rand.NewSource(8))
	leaves := []string{"a", "b", "c", "d", "e", "f"}
	mk := func(n int) *dataset.Dataset {
		d := dataset.New(schema)
		for i := 0; i < n; i++ {
			d.MustAppend(dataset.Record{EntityID: i, Cells: []dataset.Cell{
				dataset.CatCell(edu, leaves[rng.Intn(6)]),
				dataset.NumCell(float64(rng.Intn(64))),
			}})
		}
		return d
	}
	a, b := mk(400), mk(400)
	qids := []int{0, 1}
	anon := anonymize.NewMaxEntropy()
	av, err := anon.Anonymize(a, qids, 2)
	if err != nil {
		t.Fatal(err)
	}
	bv, err := anon.Anonymize(b, qids, 2)
	if err != nil {
		t.Fatal(err)
	}
	rule, err := RuleFor(schema, qids, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	old := parallelThreshold
	defer func() { parallelThreshold = old }()

	parallelThreshold = 1 << 30 // force serial
	serial, err := Block(av, bv, rule)
	if err != nil {
		t.Fatal(err)
	}
	parallelThreshold = 0 // force parallel
	parallel, err := Block(av, bv, rule)
	if err != nil {
		t.Fatal(err)
	}

	if serial.MatchedPairs != parallel.MatchedPairs ||
		serial.NonMatchedPairs != parallel.NonMatchedPairs ||
		serial.UnknownPairs != parallel.UnknownPairs {
		t.Fatalf("counts differ: serial %d/%d/%d, parallel %d/%d/%d",
			serial.MatchedPairs, serial.NonMatchedPairs, serial.UnknownPairs,
			parallel.MatchedPairs, parallel.NonMatchedPairs, parallel.UnknownPairs)
	}
	for ri := range av.Classes {
		for si := range bv.Classes {
			if serial.Label(ri, si) != parallel.Label(ri, si) {
				t.Fatalf("label (%d,%d) differs", ri, si)
			}
		}
	}
	if !reflect.DeepEqual(serial.UnknownGroupPairs(), parallel.UnknownGroupPairs()) {
		t.Fatal("UnknownGroupPairs order differs between serial and parallel")
	}
}
