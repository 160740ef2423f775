package main

import (
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first and third quartile of v by the exclusive
// method (what Python's statistics.quantiles(v, n=4) gives), or ok =
// false when there are too few values to have any.
func quartiles(v []float64) (q1, q3 float64, ok bool) {
	n := len(v)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75), true
}

// spread is the distance between the quartiles as a share of the
// median; 0 when a single run gives no way to know.
func spread(v []float64) float64 {
	q1, q3, ok := quartiles(v)
	m := median(v)
	if !ok || m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

// compareReports prints, per workload and end-to-end metric, both
// medians, their ratio with its base, and a verdict against the bound
// BENCHMARK.json fixes. A metric whose run-to-run spread on either side
// is wider than its bound is UNRESOLVED, not unchanged. The exit code is
// non-zero when anything regressed.
func compareReports(spec *benchSpec, oldPath, newPath string) int {
	oldRep, err := readReport(oldPath)
	if err != nil {
		return fail(err)
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("old: %s  commit %s  host %s  seed %d\n", oldPath, oldRep.Header.Commit, oldRep.Header.Host, oldRep.Header.Seed)
	fmt.Printf("new: %s  commit %s  host %s  seed %d\n", newPath, newRep.Header.Commit, newRep.Header.Host, newRep.Header.Seed)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told\tnew\tnew/old\tbound\tverdict")
	regressions, unresolved := 0, 0
	for _, name := range workloadNames {
		ow, nw := oldRep.Workloads[name], newRep.Workloads[name]
		if ow == nil || nw == nil {
			continue
		}
		oldIn, newIn := oldRep.Header.InputSHA256[name], newRep.Header.InputSHA256[name]
		if oldIn != newIn {
			fmt.Fprintf(tw, "%s\t(inputs differ: %.12s… vs %.12s…)\t\t\t\t\t\t\n", name, oldIn, newIn)
		}
		for _, m := range spec.EndToEnd {
			olds, news := ow.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			if olds == nil || news == nil || len(olds.Values) == 0 || len(news.Values) == 0 {
				continue
			}
			o, n := median(olds.Values), median(news.Values)
			// worse is how far the new median moved in the bad
			// direction, as a share of the old one.
			worse := (n - o) / o
			if m.Better == "higher" {
				worse = (o - n) / o
			}
			verdict := "PASS"
			switch {
			case spread(olds.Values) > m.Bound || spread(news.Values) > m.Bound:
				verdict = "UNRESOLVED"
				unresolved++
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f (base %.6g)\t%g\t%s\n",
				name, m.Name, m.Unit, o, n, n/o, o, m.Bound, verdict)
		}
		if oldIn == newIn && len(ow.Recall) > 0 && len(nw.Recall) > 0 {
			o, n := ow.Recall[0], nw.Recall[0]
			verdict := "PASS"
			if n < o {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(tw, "%s\trecall\tfraction\t%.6g\t%.6g\t\t0 (same inputs)\t%s\n", name, o, n, verdict)
		}
		if f := sum(nw.Failed); f > 0 {
			fmt.Fprintf(tw, "%s\tfailed\tcount\t%d\t%d\t\t0\tREGRESSION\n", name, sum(ow.Failed), f)
			regressions++
		}
	}
	tw.Flush()
	fmt.Printf("%d regression(s), %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}

func sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}
