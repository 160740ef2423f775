package pprl_test

import (
	"math/rand"
	"testing"

	"pprl"
)

// TestFacadeEndToEnd exercises the whole public API surface the way a
// downstream user would: build a schema, load data, link, evaluate.
func TestFacadeEndToEnd(t *testing.T) {
	schema := pprl.AdultSchema()
	full := pprl.GenerateAdult(schema, 450, 2024)
	alice, bob := pprl.SplitOverlap(full, rand.New(rand.NewSource(1)))

	cfg := pprl.DefaultConfig(pprl.DefaultAdultQIDs())
	cfg.AliceK, cfg.BobK = 16, 16
	res, err := pprl.Link(pprl.Holder{Data: alice}, pprl.Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := pprl.TruePairs(alice, bob, res.QIDs(), res.Rule())
	if err != nil {
		t.Fatal(err)
	}
	conf := res.Evaluate(truth)
	if conf.Precision() != 1 {
		t.Errorf("precision = %v, want 1", conf.Precision())
	}
	if res.BlockingEfficiency() <= 0 {
		t.Errorf("blocking efficiency = %v", res.BlockingEfficiency())
	}
}

// TestFacadeCustomSchema builds a custom two-attribute schema through the
// facade, the path a non-Adult deployment takes.
func TestFacadeCustomSchema(t *testing.T) {
	edu := pprl.MustParseVGH("education", `ANY
  Secondary
    9th
    10th
  University
    Bachelors
    Masters
`)
	hours, err := pprl.NewIntervalHierarchy("hours", 1, 99, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	schema := pprl.MustSchema(pprl.CatAttr(edu), pprl.NumAttr(hours))
	mk := func(values [][2]any) *pprl.Dataset {
		d := pprl.NewDataset(schema)
		for i, v := range values {
			rec := pprl.Record{EntityID: i, Cells: []pprl.Cell{
				pprl.CatCell(edu, v[0].(string)),
				pprl.NumCell(float64(v[1].(int))),
			}}
			if err := d.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	alice := mk([][2]any{{"Masters", 35}, {"Masters", 36}, {"9th", 28}, {"10th", 22}})
	bob := mk([][2]any{{"Masters", 36}, {"Masters", 35}, {"Bachelors", 27}, {"10th", 23}})

	cfg := pprl.DefaultConfig([]string{"education", "hours"})
	cfg.AliceK, cfg.BobK = 2, 2
	cfg.Theta = 0.2
	cfg.AllowanceFraction = 1.0
	cfg.Comparator = pprl.SecureComparatorFactory(256) // real crypto end to end
	res, err := pprl.Link(pprl.Holder{Data: alice}, pprl.Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := pprl.TruePairs(alice, bob, res.QIDs(), res.Rule())
	if err != nil {
		t.Fatal(err)
	}
	conf := res.Evaluate(truth)
	if conf.Precision() != 1 || conf.Recall() != 1 {
		t.Errorf("full-allowance linkage should be perfect, got %v", conf)
	}
}

func TestFacadeAnonymizers(t *testing.T) {
	for _, a := range []pprl.Anonymizer{
		pprl.NewMaxEntropy(), pprl.NewTDS(), pprl.NewDataFly(), pprl.NewMondrian(),
	} {
		if a.Name() == "" {
			t.Error("anonymizer without a name")
		}
	}
}
