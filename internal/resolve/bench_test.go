package resolve

import (
	"testing"

	"pprl/internal/journal"
)

// constCmp answers every pair false from one buffer: the kernel's own cost
// is what is left.
type constCmp struct{ verdicts []bool }

func (c *constCmp) CompareBatch(pairs [][2]int) ([]bool, error) {
	if len(c.verdicts) < len(pairs) {
		c.verdicts = make([]bool, len(pairs))
	}
	return c.verdicts[:len(pairs)], nil
}

// nopJournal accepts every record: the kernel's per-pair journaling calls
// without a writer behind them.
type nopJournal struct{}

func (nopJournal) Begin(journal.Manifest) ([]journal.Verdict, error) { return nil, nil }
func (nopJournal) Record(i, j int, matched bool) error               { return nil }
func (nopJournal) RecordTier(i, j int, matched bool) error           { return nil }
func (nopJournal) Sync() error                                       { return nil }

// BenchmarkResolveRun is the kernel alone — walk, admission, the pair
// list, delivery — over A × B groups of k = 32 a side, with and without a
// journal in the delivery path, and over the same pairs as explicit lists,
// the incremental engine's shape, which stay pair-at-a-time. core's
// BenchmarkLinkPlain is the sum with the comparator, the label store and
// the stages before the walk.
func BenchmarkResolveRun(b *testing.B) {
	const k, groups = 32, 512
	rows := make([][]int, groups)
	lists := make([][][2]int32, groups)
	for g := range rows {
		rows[g] = make([]int, k)
		for x := range rows[g] {
			rows[g][x] = g*k + x
		}
	}
	for g := range lists {
		for _, i := range rows[g] {
			for _, j := range rows[groups-1-g] {
				lists[g] = append(lists[g], [2]int32{int32(i), int32(j)})
			}
		}
	}
	cross := func(g int) Group { return Group{A: rows[g], B: rows[groups-1-g]} }
	for _, c := range []struct {
		name    string
		group   func(g int) Group
		journal journal.Sink
	}{
		{"plain", cross, nil},
		{"journaled", cross, nopJournal{}},
		{"pair-lists-journaled", func(g int) Group { return Group{Pairs: lists[g]} }, nopJournal{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			in := Input{
				Groups:     groups,
				Group:      c.group,
				Budget:     groups * k * k,
				Comparator: &constCmp{},
				Journal:    c.journal,
				Sink:       func(Event) {},
			}
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := Run(in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.Budget), "ns/pair")
		})
	}
}
