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
	"slices"
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

// run renders the selected artifacts to out, walking experiment.Arms in
// order. An arm with a report fails the run unless its gate passes; with
// asJSON the tier and dp reports are also written, stamped, to tierOut
// and dpOut (none when the path is empty).
func run(out io.Writer, exps string, records int, full bool, seed int64, asJSON bool, tierOut, dpOut string) error {
	opts := experiment.Options{Records: records, Seed: seed}
	if full {
		opts.Records = 30162
	}
	wanted := make(map[string]bool)
	for _, id := range strings.Split(exps, ",") {
		wanted[strings.TrimSpace(strings.ToLower(id))] = true
	}
	want := func(id string) bool { return wanted["all"] || wanted[id] }
	reportOut := map[string]string{"tier": tierOut, "dp": dpOut}

	for _, arm := range experiment.Arms {
		if !slices.ContainsFunc(arm.IDs, want) {
			continue
		}
		if arm.Text != nil {
			if err := arm.Text(out); err != nil {
				return err
			}
			continue
		}
		tables, rep, err := arm.Tables(opts)
		if err != nil {
			return err
		}
		for _, t := range tables {
			switch {
			case !want(t.ID):
			case asJSON:
				err = t.RenderJSON(out)
			default:
				err = t.Render(out)
			}
			if err != nil {
				return err
			}
		}
		if rep == nil {
			continue
		}
		if path := reportOut[arm.IDs[0]]; asJSON && path != "" {
			rep.SetStamp(stamp())
			if err := writeReport(arm.IDs[0], path, rep); err != nil {
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
func writeReport(arm, path string, rep experiment.Report) error {
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
