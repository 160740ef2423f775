// Papertables replays the paper's Section III worked example (Tables I
// and II) and prints the full 6×6 pair grid the walkthrough reasons
// about: 6 pairs matched, 12 mismatched and 18 left unknown by the slack
// decision rule over the anonymized relations R' and S'.
//
//	go run ./examples/papertables
package main

import (
	"fmt"
	"log"

	"pprl/internal/blocking"
	"pprl/internal/experiment"
	"pprl/internal/index"
)

func main() {
	d, err := experiment.NewWorkedExample()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Relation R (Table I) and its 3-anonymous generalization R':")
	for i, rec := range d.RRecords {
		fmt.Printf("  r%d %-16s ->  %s\n", i+1, rec, d.R.Classes[d.R.ClassOf[i]].Sequence)
	}
	fmt.Println("\nRelation S (Table II) and its 2-anonymous generalization S':")
	for j, rec := range d.SRecords {
		fmt.Printf("  s%d %-16s ->  %s\n", j+1, rec, d.S.Classes[d.S.ClassOf[j]].Sequence)
	}

	res, err := index.Block(d.R, d.S, d.Rule)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nSlack decision rule over every record pair (M match, N mismatch, U unknown):")
	fmt.Print("      ")
	for j := range d.SRecords {
		fmt.Printf("s%d  ", j+1)
	}
	fmt.Println()
	counts := map[blocking.Label]int{}
	for i := range d.RRecords {
		fmt.Printf("  r%d  ", i+1)
		for j := range d.SRecords {
			l := res.Label(d.R.ClassOf[i], d.S.ClassOf[j])
			counts[l]++
			fmt.Printf("%-4s", l)
		}
		fmt.Println()
	}
	fmt.Printf("\ntotals: %d M, %d N, %d U of %d pairs — blocking efficiency %.0f%%\n",
		counts[blocking.Match], counts[blocking.NonMatch], counts[blocking.Unknown],
		len(d.RRecords)*len(d.SRecords), 100*res.Efficiency())

	// Verify the labels against ground truth, as Section III argues:
	// no M or N label is ever wrong.
	fmt.Println("\nverifying every decided label against the exact rule:")
	wrong := 0
	for i, r := range d.RRecords {
		for j, s := range d.SRecords {
			l := res.Label(d.R.ClassOf[i], d.S.ClassOf[j])
			if l == blocking.Unknown {
				continue
			}
			truth := d.Rule.DecideExact(r, s)
			if (l == blocking.Match) != truth {
				wrong++
				fmt.Printf("  WRONG: (r%d, s%d) labeled %v but truth is %v\n", i+1, j+1, l, truth)
			}
		}
	}
	if wrong == 0 {
		fmt.Println("  all 18 decided labels are correct — the perfect-precision invariant.")
	}
}
