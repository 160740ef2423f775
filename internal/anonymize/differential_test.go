package anonymize_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/anonymize"
	"pprl/internal/dataset"
	"pprl/internal/testkit"
)

// TestCountFirstMatchesReference compares the count-first specialization
// engine against the materialize-everything engine it replaced
// (reference_test.go) over testkit's random worlds — random schemas, VGHs,
// skewed records, k — plus an Adult sample: the serialized views must agree
// byte for byte for every method built on the engine. The worlds carry no
// sensitive attribute, so each record is given one of a few class labels
// first; without them TDS never splits and l-diversity is refused. This is
// an external test because testkit imports anonymize.
func TestCountFirstMatchesReference(t *testing.T) {
	check := func(name string, d *dataset.Dataset, qids []int, k int) {
		t.Helper()
		for _, pair := range [][2]anonymize.Anonymizer{
			{anonymize.NewMaxEntropy(), anonymize.Reference("Entropy", 0)},
			{anonymize.NewTDS(), anonymize.Reference("TDS", 0)},
			{anonymize.NewLDiverseEntropy(2), anonymize.Reference("Entropy+l", 2)},
			{anonymize.NewMondrian(), anonymize.Reference("Mondrian", 0)},
		} {
			var views [2]bytes.Buffer
			for x, a := range pair {
				res, err := a.Anonymize(d, qids, k)
				if err != nil {
					t.Fatalf("%s %s k=%d: %v", name, a.Name(), k, err)
				}
				if err := anonymize.WriteView(&views[x], d.Schema(), res); err != nil {
					t.Fatalf("%s %s k=%d: WriteView: %v", name, a.Name(), k, err)
				}
			}
			if !bytes.Equal(views[0].Bytes(), views[1].Bytes()) {
				t.Errorf("%s %s k=%d: view differs from the reference engine's\n got %s\nwant %s",
					name, pair[0].Name(), k, views[0].Bytes(), views[1].Bytes())
			}
		}
	}

	for seed := int64(1); seed <= 60; seed++ {
		w := testkit.Generate(seed)
		rng := rand.New(rand.NewSource(seed))
		labels := 2 + rng.Intn(3)
		d := dataset.New(w.Alice.Schema())
		for i := 0; i < w.Alice.Len(); i++ {
			r := w.Alice.Record(i)
			r.Class = fmt.Sprintf("c%d", rng.Intn(labels))
			d.MustAppend(r)
		}
		qids := make([]int, d.Schema().Len())
		for q := range qids {
			qids[q] = q
		}
		check(fmt.Sprintf("world %d", seed), d, qids, 1+rng.Intn(9))
	}

	d := adult.Generate(1500, 11)
	qids, err := d.Schema().Resolve(adult.DefaultQIDs())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4, 32} {
		check("adult", d, qids, k)
	}
}
