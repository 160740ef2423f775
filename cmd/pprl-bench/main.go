// Command pprl-bench regenerates the paper's evaluation artifacts — every
// figure of Section VI plus the Section III worked example and two
// ablation tables — and prints them as text tables. EXPERIMENTS.md records
// a reference run next to the paper's reported shapes.
//
// Usage:
//
//	pprl-bench                     # the full suite at the default scale
//	pprl-bench -exp fig3,fig8      # selected artifacts
//	pprl-bench -full               # paper-scale workload (30,162 records; ≈ 1.5 min)
//	pprl-bench -records 6000       # custom scale
//	pprl-bench -exp tier,dp -json  # also writes BENCH_tier.json and BENCH_dp.json here
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"pprl/internal/experiment"
)

func main() {
	var (
		exps    = flag.String("exp", "all", "comma-separated artifact IDs: fig2..fig8, strategies, anonymizers, baselines, diversity, strings, bloom, timing, tier, dp, example, or all")
		records = flag.Int("records", 0, "workload size (records before the overlap split); 0 = default 1800")
		full    = flag.Bool("full", false, "paper-scale workload: 30,162 records (the whole suite ≈ 1.5 min)")
		seed    = flag.Int64("seed", 0, "workload seed; 0 = default")
		asJSON  = flag.Bool("json", false, "emit tables as JSON for external plotting; tier and dp additionally write BENCH_tier.json and BENCH_dp.json")
	)
	flag.Parse()
	if err := run(os.Stdout, *exps, *records, *full, *seed, *asJSON, "BENCH_tier.json", "BENCH_dp.json"); err != nil {
		fmt.Fprintln(os.Stderr, "pprl-bench:", err)
		os.Exit(1)
	}
}

// run renders the selected artifacts to out. With asJSON the tier and dp
// artifacts also write their stamped reports to tierOut and dpOut (none
// when the path is empty).
func run(out io.Writer, exps string, records int, full bool, seed int64, asJSON bool, tierOut, dpOut string) error {
	render := func(t *experiment.Table) error {
		if asJSON {
			return t.RenderJSON(out)
		}
		return t.Render(out)
	}
	opts := experiment.Options{Records: records, Seed: seed}
	if full {
		opts.Records = 30162
	}
	wanted := make(map[string]bool)
	for _, id := range strings.Split(exps, ",") {
		wanted[strings.TrimSpace(strings.ToLower(id))] = true
	}
	all := wanted["all"]
	want := func(id string) bool { return all || wanted[id] }

	if want("example") {
		if err := printWorkedExample(out); err != nil {
			return err
		}
	}
	type gen struct {
		id string
		fn func(experiment.Options) (*experiment.Table, error)
	}
	singles := []gen{
		{"fig2", experiment.Fig2},
		{"fig3", experiment.Fig3},
		{"fig4", experiment.Fig4},
		{"fig5", experiment.Fig5},
	}
	for _, g := range singles {
		if !want(g.id) {
			continue
		}
		t, err := g.fn(opts)
		if err != nil {
			return err
		}
		if err := render(t); err != nil {
			return err
		}
	}
	if want("fig6") || want("fig7") {
		f6, f7, err := experiment.Fig6and7(opts)
		if err != nil {
			return err
		}
		if want("fig6") {
			if err := render(f6); err != nil {
				return err
			}
		}
		if want("fig7") {
			if err := render(f7); err != nil {
				return err
			}
		}
	}
	tail := []gen{
		{"fig8", experiment.Fig8},
		{"strategies", experiment.Strategies},
		{"anonymizers", experiment.Anonymizers},
		{"baselines", experiment.Baselines},
		{"diversity", experiment.Diversity},
		{"strings", experiment.Strings},
		{"bloom", experiment.Bloom},
	}
	for _, g := range tail {
		if !want(g.id) {
			continue
		}
		t, err := g.fn(opts)
		if err != nil {
			return err
		}
		if err := render(t); err != nil {
			return err
		}
	}
	if want("timing") {
		t, err := experiment.Timing(opts, 1024, 256)
		if err != nil {
			return err
		}
		if err := render(t); err != nil {
			return err
		}
	}
	if want("tier") {
		rep, t, err := experiment.TierPerf(opts)
		if err != nil {
			return err
		}
		if err := render(t); err != nil {
			return err
		}
		if asJSON && tierOut != "" {
			rep.Stamp = stamp()
			if err := writeReport("tier", tierOut, rep); err != nil {
				return err
			}
		}
		if err := rep.Gate(); err != nil {
			return err
		}
	}
	if want("dp") {
		rep, t, err := experiment.DPPerf(opts)
		if err != nil {
			return err
		}
		if err := render(t); err != nil {
			return err
		}
		if asJSON && dpOut != "" {
			rep.Stamp = stamp()
			if err := writeReport("dp", dpOut, rep); err != nil {
				return err
			}
		}
		if err := rep.Gate(); err != nil {
			return err
		}
	}
	return nil
}

// stamp identifies the host, toolchain and tree a report is measured on
// ("unknown" outside a git checkout, "-dirty" when the tree differs).
func stamp() *experiment.Stamp {
	host, _ := os.Hostname()
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
			commit += "-dirty"
		}
	}
	return &experiment.Stamp{Host: host, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit}
}

// writeReport writes one arm's machine-readable report to path.
func writeReport(arm, path string, rep interface{ WriteJSON(io.Writer) error }) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("%s: %w", arm, err)
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: writing report: %w", arm, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: report written to %s\n", arm, path)
	return nil
}

// printWorkedExample renders the Section III walkthrough (Tables I & II).
func printWorkedExample(out io.Writer) error {
	d, err := experiment.NewWorkedExample()
	if err != nil {
		return err
	}
	res, err := experiment.WorkedExample()
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
	fmt.Fprintf(out, "slack rule labels: %d matched, %d mismatched, %d unknown of %d pairs (blocking efficiency %.0f%%)\n\n",
		res.MatchedPairs, res.NonMatchedPairs, res.UnknownPairs, res.TotalPairs(), 100*res.Efficiency())
	return nil
}
