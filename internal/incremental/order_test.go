package incremental_test

import (
	"testing"

	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/incremental"
	"pprl/internal/testkit"
)

// TestGroupOrderHasNoTies: the engine sorts a batch's candidate groups
// with an unstable sort, which picks the stable sort's order only if no
// two groups compare equal. On every generated world — cross-dataset and
// dedup, both score directions — no batch holds a tie.
func TestGroupOrderHasNoTies(t *testing.T) {
	groups := 0
	for seed := int64(1); seed <= 40; seed++ {
		w := testkit.Generate(seed)
		for _, mode := range []string{"plain", "recall", "dedup"} {
			cfg := incremental.Config{
				QIDs:       w.Alice.Schema().Names(),
				Theta:      w.Cfg.Theta,
				Thresholds: w.Cfg.Thresholds,
				Heuristic:  w.Cfg.Heuristic,
				Allowance:  1 << 40,
			}
			switch mode {
			case "recall":
				cfg.Strategy = core.MaximizeRecall
			case "dedup":
				cfg.Dedup = true
			}
			eng, err := incremental.New(w.Alice.Schema(), cfg)
			if err != nil {
				t.Fatalf("world %d %s: %v", seed, mode, err)
			}
			eng.ObserveGroupTies(func(n, ties int) {
				groups += n
				if ties > 0 {
					t.Errorf("world %d %s: %d pairs of %d groups compare equal", seed, mode, ties, n)
				}
			})
			sides := []*dataset.Dataset{w.Alice, w.Bob}
			if cfg.Dedup {
				sides = sides[:1]
			}
			for b := 0; b < 3; b++ {
				for s, d := range sides {
					if _, err := eng.Append(s, d.Records()[b*d.Len()/3:(b+1)*d.Len()/3]); err != nil {
						t.Fatalf("world %d %s: %v", seed, mode, err)
					}
				}
			}
		}
	}
	if groups == 0 {
		t.Fatal("no batch ordered a group")
	}
}
