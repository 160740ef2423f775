// Command benchmark is the repository's one end-to-end benchmark: five
// deployment-shape workloads pushed through the program's public
// functions, reference-normalised timings, output checks, and — in the
// traced run — spans at every layer seam plus a set of layer probes.
// BENCHMARK.json at the checkout root names every metric it emits;
// README.md in this directory defines them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); empty runs all five, each in a fresh process")
	seed := fs.Int64("seed", defaultSeed, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 0, "target length of each timed region; 0 takes run_seconds from BENCHMARK.json")
	trace := fs.Int("trace", 0, "1 repeats the pass with spans recorded and runs the layer probes; the result line then carries the per-layer metrics")
	out := fs.String("out", "", "write the JSON result file here")
	runs := fs.Int("runs", 1, "with no -workload: how many times to run each workload")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files: old.json new.json"))
		}
		return compareReports(spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *seconds < 1 || *seconds > 60 {
		return fail(fmt.Errorf("-seconds must be between 1 and 60, got %d", *seconds))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if runtime.NumCPU() < parallelism {
		return fail(fmt.Errorf("this benchmark fixes all parallelism at %d and this host has %d CPU(s); its numbers would describe time-slicing, not the program", parallelism, runtime.NumCPU()))
	}
	runtime.GOMAXPROCS(parallelism)
	sz := sizesFor(*seconds)
	rep := &report{Header: newHeader(root, *seed, *seconds, sz), Workloads: map[string]*wlReport{}}

	if *workloadFlag == "" {
		return runAll(root, rep, *seed, *seconds, *trace, *runs, *out)
	}

	clean := &cleanups{}
	defer clean.run()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		clean.run()
		os.Exit(130)
	}()
	e, err := newEnv(root, *seed, sz, clean)
	if err != nil {
		return fail(err)
	}
	type done struct {
		res *result
		err error
	}
	ch := make(chan done, 1)
	go func() {
		res, err := runWorkload(e, *workloadFlag, *trace == 1)
		ch <- done{res, err}
	}()
	var d done
	select {
	case d = <-ch:
	case <-time.After(workloadLimit * time.Second):
		// A hang is a failure, not a long run: undo everything and say so.
		clean.run()
		return fail(fmt.Errorf("%s: no result within %d s; abandoned", *workloadFlag, workloadLimit))
	}
	if d.err != nil {
		clean.run()
		return fail(d.err)
	}
	return finish(spec, rep, d.res, *out)
}

// finish checks, stores and prints one run's result and decides the
// exit code: a result the driver cannot use, or one whose outputs were
// wrong, is a failed run.
func finish(spec *benchSpec, rep *report, res *result, out string) int {
	if err := res.check(spec); err != nil {
		return fail(err)
	}
	rep.add(spec, res)
	if out != "" {
		if err := writeReport(out, rep); err != nil {
			return fail(err)
		}
	}
	printResult(spec, res)
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed the output check\n", res.workload, res.failed, res.attempted)
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// printResult writes one "name unit value" line per metric and then,
// as the last line of standard output, the result object: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func printResult(spec *benchSpec, r *result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range spec.EndToEnd {
		fmt.Printf("%s.%s %s %v\n", r.workload, m.Name, m.Unit, r.endToEnd[m.Name])
		if r.perLayer == nil {
			line.Metrics[m.Name] = value{r.endToEnd[m.Name], m.Unit}
		}
	}
	fmt.Printf("%s.recall fraction %v\n", r.workload, r.recall)
	fmt.Printf("%s.failed_share fraction %v\n", r.workload, float64(r.failed)/float64(r.attempted))
	for _, m := range spec.PerLayer {
		if r.perLayer != nil {
			fmt.Printf("%s.%s %s %v\n", r.workload, m.Name, m.Unit, r.perLayer[m.Name])
			line.Metrics[m.Name] = value{r.perLayer[m.Name], m.Unit}
		} else if v, ok := r.bench[m.Name]; ok {
			fmt.Printf("%s.%s %s %v\n", r.workload, m.Name, m.Unit, v)
		}
	}
	raw, _ := json.Marshal(line)
	fmt.Println(string(raw))
}

func writeReport(path string, rep *report) error {
	raw, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// runAll runs every workload in a fresh child process of this binary,
// so one workload's heap and resident-set peak cannot leak into the
// next, and merges the children's result files.
func runAll(root string, rep *report, seed int64, seconds, trace, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(base, "all-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	failedWorkloads := 0
	for r := 0; r < runs; r++ {
		for _, name := range workloadNames {
			child := filepath.Join(dir, fmt.Sprintf("%s-%d.json", name, r))
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-out", child)
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			// The child's last line is the driver's result object; a
			// person reading the full pass wants the named lines.
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			if n := len(lines); n > 1 {
				fmt.Println(strings.Join(lines[:n-1], "\n"))
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s failed: %v\n", name, err)
				failedWorkloads++
			}
			cr, rerr := readReport(child)
			if rerr != nil {
				continue
			}
			for w, wl := range cr.Workloads {
				rep.Header.InputSHA256[w] = cr.Header.InputSHA256[w]
				mergeWorkload(rep, w, wl)
			}
		}
	}
	if out != "" {
		if err := writeReport(out, rep); err != nil {
			return fail(err)
		}
	}
	if failedWorkloads > 0 {
		return 1
	}
	return 0
}

// mergeWorkload appends one child's values to the combined report.
func mergeWorkload(rep *report, name string, wl *wlReport) {
	dst := rep.Workloads[name]
	if dst == nil {
		rep.Workloads[name] = wl
		return
	}
	dst.Attempted = append(dst.Attempted, wl.Attempted...)
	dst.Failed = append(dst.Failed, wl.Failed...)
	dst.Recall = append(dst.Recall, wl.Recall...)
	merge := func(into, from map[string]*series) {
		names := make([]string, 0, len(from))
		for n := range from {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if into[n] == nil {
				into[n] = &series{Unit: from[n].Unit}
			}
			into[n].Values = append(into[n].Values, from[n].Values...)
		}
	}
	merge(dst.EndToEnd, wl.EndToEnd)
	if wl.PerLayer != nil {
		if dst.PerLayer == nil {
			dst.PerLayer = map[string]*series{}
		}
		merge(dst.PerLayer, wl.PerLayer)
	}
}
