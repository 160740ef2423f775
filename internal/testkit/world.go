// Package testkit generates randomized end-to-end linkage workloads for
// the differential-oracle harness: random schemas mixing categorical,
// continuous and prefix-structured attributes, random value
// generalization hierarchies, skewed record draws, and randomized
// pipeline parameters (k, θ, SMC allowance, heuristic, anonymizer,
// residual strategy). Every world is a pure function of its seed, so a
// failure logged by the harness is reproduced by re-running with the
// same seed (see TESTING.md).
//
// The package also provides FaultConn, a fault-injecting smc.Conn
// wrapper that drops, truncates, garbles or delays frames at seeded
// positions, used to assert the SMC engine surfaces transport faults as
// descriptive errors instead of hanging or mislabeling.
package testkit

import (
	"fmt"
	"math"
	"math/rand"

	"pprl/internal/anonymize"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/heuristic"
	"pprl/internal/oracle"
	"pprl/internal/vgh"
)

// World is one generated linkage scenario: two relations over a random
// shared schema plus a full pipeline configuration.
type World struct {
	Seed       int64
	Alice, Bob *dataset.Dataset
	Cfg        core.Config
}

// Generate builds the world for a seed. Equal seeds give equal worlds:
// the generator draws everything from one rand.Source and the pipeline
// itself is deterministic.
func Generate(seed int64) *World {
	rng := rand.New(rand.NewSource(seed))
	schema := randomSchema(rng)
	full := randomRecords(rng, schema)
	alice, bob := dataset.SplitOverlap(full, rand.New(rand.NewSource(rng.Int63())))

	cfg := core.DefaultConfig(schema.Names())
	cfg.AliceK = 2 + rng.Intn(7)
	cfg.BobK = 2 + rng.Intn(7)
	cfg.Theta = 0.02 + rng.Float64()*0.28
	if rng.Float64() < 0.25 {
		// Per-attribute thresholds; an occasional θ ≥ 1 turns a
		// categorical attribute into ModeAlways in the SMC circuit.
		ths := make([]float64, schema.Len())
		for i := range ths {
			if rng.Float64() < 0.1 {
				ths[i] = 1.0
			} else {
				ths[i] = 0.02 + rng.Float64()*0.33
			}
		}
		cfg.Thresholds = ths
	}
	cfg.AliceAnonymizer = randomAnonymizer(rng)
	cfg.BobAnonymizer = randomAnonymizer(rng)
	cfg.Heuristic = heuristic.All()[rng.Intn(len(heuristic.All()))]
	switch r := rng.Float64(); {
	case r < 0.6:
		cfg.Strategy = core.MaximizePrecision
	case r < 0.8:
		cfg.Strategy = core.MaximizeRecall
	default:
		cfg.Strategy = core.TrainClassifier
	}
	cfg.AllowanceFraction = rng.Float64() * 0.04
	cfg.Seed = seed

	return &World{Seed: seed, Alice: alice, Bob: bob, Cfg: cfg}
}

// Run executes the full pipeline on the world and builds the reference
// oracle over the same raw relations and rule.
func (w *World) Run() (*core.Result, *oracle.Oracle, error) {
	res, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, w.Cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("testkit: world %d: %w", w.Seed, err)
	}
	o, err := oracle.New(w.Alice, w.Bob, res.QIDs(), res.Rule())
	if err != nil {
		return nil, nil, fmt.Errorf("testkit: world %d: %w", w.Seed, err)
	}
	return res, o, nil
}

// Describe renders the world's parameters for failure output.
func (w *World) Describe() string {
	return fmt.Sprintf("seed=%d |alice|=%d |bob|=%d attrs=%d kA=%d kB=%d θ=%.3f thresholds=%v anonA=%s anonB=%s heuristic=%s strategy=%v allowance=%.4f",
		w.Seed, w.Alice.Len(), w.Bob.Len(), w.Alice.Schema().Len(),
		w.Cfg.AliceK, w.Cfg.BobK, w.Cfg.Theta, w.Cfg.Thresholds,
		w.Cfg.AliceAnonymizer.Name(), w.Cfg.BobAnonymizer.Name(),
		w.Cfg.Heuristic.Name(), w.Cfg.Strategy, w.Cfg.AllowanceFraction)
}

// randomSchema draws 1–3 attributes, each one of three shapes: a random
// categorical taxonomy, an integer-valued interval hierarchy, or a
// prefix hierarchy over random strings (the paper's future-work string
// attributes, compared with Hamming in the pipeline).
func randomSchema(rng *rand.Rand) *dataset.Schema {
	n := 1 + rng.Intn(3)
	attrs := make([]dataset.Attribute, n)
	for i := range attrs {
		name := fmt.Sprintf("a%d", i)
		switch rng.Intn(3) {
		case 0:
			attrs[i] = dataset.CatAttr(randomTaxonomy(rng, name))
		case 1:
			attrs[i] = dataset.NumAttr(randomIntervals(rng, name))
		default:
			attrs[i] = dataset.CatAttr(randomPrefixes(rng, name))
		}
	}
	return dataset.MustSchema(attrs...)
}

// randomTaxonomy builds a two-level tree: 2–4 groups of 1–4 leaves.
func randomTaxonomy(rng *rand.Rand, name string) *vgh.Hierarchy {
	b := vgh.NewBuilder(name, "ANY")
	groups := 2 + rng.Intn(3)
	for g := 0; g < groups; g++ {
		gname := fmt.Sprintf("%s-g%d", name, g)
		b.Add("ANY", gname)
		leaves := 1 + rng.Intn(4)
		for l := 0; l < leaves; l++ {
			b.Add(gname, fmt.Sprintf("%s-v%d", gname, l))
		}
	}
	return b.MustBuild()
}

// randomIntervals builds an integer-grained interval hierarchy. The leaf
// width is a whole number and records draw integer values, so the SMC
// circuit at scale 1 is exactly equivalent to the clear-text rule.
func randomIntervals(rng *rand.Rand, name string) *vgh.IntervalHierarchy {
	branch := 2 + rng.Intn(2)
	depth := 2 + rng.Intn(2)
	leafWidth := float64(1 + rng.Intn(6))
	max := leafWidth * math.Pow(float64(branch), float64(depth))
	return vgh.MustIntervalHierarchy(name, 0, max, branch, depth)
}

// randomPrefixes builds a prefix hierarchy over 5–14 distinct length-3
// strings with cut points after 1 and 2 characters.
func randomPrefixes(rng *rand.Rand, name string) *vgh.Hierarchy {
	letters := "abc"
	all := make([]string, 0, 27)
	for _, x := range letters {
		for _, y := range letters {
			for _, z := range letters {
				all = append(all, string([]rune{x, y, z}))
			}
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	values := all[:5+rng.Intn(10)]
	h, err := vgh.PrefixHierarchy(name, values, 1, 2)
	if err != nil {
		panic(fmt.Sprintf("testkit: prefix hierarchy: %v", err))
	}
	return h
}

// randomRecords draws 45–134 records with skewed attribute marginals, so
// equivalence classes vary widely in size the way real data does.
func randomRecords(rng *rand.Rand, schema *dataset.Schema) *dataset.Dataset {
	d := dataset.New(schema)
	n := 45 + rng.Intn(90)
	for i := 0; i < n; i++ {
		cells := make([]dataset.Cell, schema.Len())
		for a := 0; a < schema.Len(); a++ {
			attr := schema.Attr(a)
			if attr.Kind == dataset.Categorical {
				cells[a] = dataset.Cell{Node: attr.Hierarchy.Leaf(skewIdx(rng, attr.Hierarchy.NumLeaves()))}
			} else {
				cells[a] = dataset.Cell{Num: float64(skewIdx(rng, int(attr.Intervals.Max())))}
			}
		}
		d.MustAppend(dataset.Record{EntityID: i, Cells: cells})
	}
	return d
}

// skewIdx draws an index in [0, n) with a power-law bias toward 0,
// modeling the skewed value frequencies of census-style attributes.
func skewIdx(rng *rand.Rand, n int) int {
	i := int(float64(n) * math.Pow(rng.Float64(), 2.2))
	if i >= n {
		i = n - 1
	}
	return i
}

// randomAnonymizer picks among the methods whose outputs the blocking
// step must stay sound for.
func randomAnonymizer(rng *rand.Rand) anonymize.Anonymizer {
	switch rng.Intn(3) {
	case 0:
		return anonymize.NewMaxEntropy()
	case 1:
		return anonymize.NewDataFly()
	default:
		return anonymize.NewMondrian()
	}
}
