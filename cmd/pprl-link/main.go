// Command pprl-link runs the full hybrid private record linkage pipeline
// between two Adult-schema CSV files and prints the matched entity pairs.
//
// Usage:
//
//	pprl-link -a alice.csv -b bob.csv
//	pprl-link -a alice.csv -b bob.csv -k 64 -theta 0.05 -allowance 0.02 \
//	    -heuristic maxLast -strategy precision -secure -keybits 1024 -eval
//	pprl-link -a alice.csv -b bob.csv -anon dp -epsilon 2 -dp-seed 7
//
// -anon dp replaces k-anonymous generalization with differentially
// private blocking: each holder publishes Laplace-noised bin counts
// (per-holder budget ε, so a run composes to 2ε), padded with dummy
// records the walk compares like any other, so the padding is paid for
// out of the SMC allowance (DESIGN.md §14).
//
// With -secure the Unknown pairs are resolved by the real three-party
// Paillier protocol; without it the plaintext cost-model oracle is used
// (same verdicts, no cryptography — see DESIGN.md §3). -eval additionally
// scores the result against exact ground truth, which is only possible
// because this command happens to hold both files. -json prints the
// document GET /v1/jobs/{id}/result serves for the same job: the result
// summary, the matched record-index pairs and, with -eval, the evaluation
// (text -pairs prints entity IDs instead). The run goes through the same
// cliutil.Job as POST /v1/jobs; only the meaning of zero differs: -k 0 is
// refused and -allowance 0 buys nothing.
//
// Long runs can be made crash-resumable with a durable journal:
//
//	pprl-link -a alice.csv -b bob.csv -secure -journal run.wal
//	# … ^C, crash, or power loss …
//	pprl-link -a alice.csv -b bob.csv -secure -journal run.wal
//
// SIGINT/SIGTERM checkpoint the journal at the next chunk boundary and
// exit. The same command again resumes: the journal's manifest decides,
// so a missing file or one cut short before its manifest became durable
// starts a fresh run, and an intact one replays the purchased verdicts
// and spends only the remaining allowance. A journal written with other
// flags or other input files is refused, as is a file that is not a
// journal.
//
// -dedup links one file against itself (duplicate detection inside a
// single relation) through the incremental engine: unordered pairs
// i < j, self-pairs excluded, the -allowance fraction taken of the
// n(n-1)/2 unordered pair space:
//
//	pprl-link -dedup -a data.csv -pairs
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pprl/internal/cliutil"
	"pprl/internal/core"
)

// options collects everything the pipeline run needs; flags fill it in
// main, tests fill it directly.
type options struct {
	// CLI is the parameter block and the flags pprl-party shares.
	cliutil.CLI
	aPath, bPath string
	// anonName selects the holders' anonymization method; "dp" switches
	// to differentially private blocking and requires -epsilon.
	anonName string
	// dedup links -a against itself through the incremental engine
	// (unordered pairs i < j); level is its fixed binning depth. kSet is
	// -k on the command line, which -dedup refuses (32, its default, is
	// no marker).
	dedup     bool
	level     int
	kSet      bool
	eval      bool
	showPairs bool
	jsonOut   bool
	// ctx interrupts the run at SMC chunk boundaries (nil = uninterruptible).
	ctx context.Context
}

// register defines the command line on fs: the shared block's flags and
// pprl-link's own.
func (opts *options) register(fs *flag.FlagSet) {
	opts.Flags(fs, cliutil.QueryFlags|cliutil.HolderFlags)
	fs.StringVar(&opts.Tier, "tier", "off", "triage tier between blocking and SMC: off or bloom (Dice over CLK encodings)")
	fs.Float64Var(&opts.TierLow, "tier-low", 0, "tier Dice threshold: an Unknown pair at or below it is labeled NonMatch for free (0 = default 0.90)")
	fs.IntVar(&opts.SMCWorkers, "smc-workers", 0, "SMC protocol lanes of the two-relation run (0 = GOMAXPROCS); -dedup runs one lane and refuses it")
	fs.StringVar(&opts.aPath, "a", "", "first data holder's CSV (required)")
	fs.StringVar(&opts.bPath, "b", "", "second data holder's CSV (required)")
	fs.StringVar(&opts.anonName, "anon", "", "anonymization method: entropy (default), tds, datafly, mondrian, or dp (noised blocking; requires -epsilon)")
	fs.StringVar(&opts.Strategy, "strategy", "precision", "residual labeling: precision, recall, classifier")
	fs.BoolVar(&opts.Secure, "secure", false, "run the real Paillier SMC protocol instead of the cost-model oracle")
	fs.BoolVar(&opts.dedup, "dedup", false, "deduplicate -a against itself (unordered pairs; -b not allowed)")
	fs.IntVar(&opts.level, "level", 0, "fixed binning depth for -dedup (0 = default)")
	fs.BoolVar(&opts.eval, "eval", false, "score against exact ground truth (requires both files, which this command has)")
	fs.BoolVar(&opts.showPairs, "pairs", false, "print matched entity-ID pairs (-json always lists the matched record-index pairs)")
	fs.BoolVar(&opts.jsonOut, "json", false, "emit the API's result document (GET /v1/jobs/{id}/result) instead of text")
}

func main() {
	var opts options
	opts.register(flag.CommandLine)
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { opts.kSet = opts.kSet || f.Name == "k" })

	// SIGINT/SIGTERM cancel the run's context: the engine drains the
	// in-flight SMC chunk (sharded lanes finish cleanly), checkpoints the
	// journal, and Link returns ErrInterrupted. A second signal kills the
	// process the usual way.
	opts.ctx = cliutil.SignalContext()

	if err := run(os.Stdout, opts); err != nil {
		opts.Fail("pprl-link", err)
	}
}

func run(out io.Writer, opts options) error {
	if opts.dedup {
		return runDedup(out, opts)
	}
	if opts.level != 0 {
		return fmt.Errorf("-level applies only to -dedup")
	}
	// The flags' meaning of zero is the job's own: -k 0 is refused and
	// -allowance 0 buys nothing.
	job := cliutil.Job{AlicePath: opts.aPath, BobPath: opts.bPath, Params: opts.Params, K: opts.K,
		AllowanceFraction: opts.AllowanceFraction, Anonymizer: opts.anonName, Evaluate: opts.eval}
	// Everything the flags alone decide is refused here, before any file
	// is read or journal created (one rule set, shared with the API).
	if err := job.Validate(cliutil.FlagNames); err != nil {
		return err
	}
	if err := job.ValidateDPLevel(cliutil.FlagNames, opts.DPLevel); err != nil {
		return err
	}
	l, err := job.Run(nil, func(cfg *core.Config) (io.Closer, error) {
		cfg.DPLevel = opts.DPLevel
		cfg.Context = opts.ctx
		w, err := opts.OpenJournal()
		if w == nil {
			return nil, err
		}
		cfg.Journal = w
		return w, nil
	})
	if err != nil {
		return err
	}
	if opts.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(l.Doc)
	}
	res := l.Result
	fmt.Fprintln(out, res.Summary())
	if res.DP != nil {
		fmt.Fprintf(out, "dp: ε=%v per holder (composed ε=%v, δ=%v) bins=%d+%d dummies=%d dummy-pairs=%d of which bought=%d (of smc=%d)\n",
			res.DP.AliceEpsilon, res.DP.TotalEpsilon, res.DP.TotalDelta, res.DP.AliceBins, res.DP.BobBins,
			res.DP.AliceDummies+res.DP.BobDummies, res.DP.DummyPairs, res.DP.DummySpent, res.Invocations)
	}
	fmt.Fprintf(out, "timings: %v\n", res.Stages)
	fmt.Fprintf(out, "latency: %s\n", res.Latency.String())
	if opts.Secure {
		fmt.Fprintf(out, "smc engine: workers=%d rate=%.1f comparisons/sec bytes=%d\n",
			res.SMCWorkers, res.SMCRate(), res.SMCBytes)
	}
	if res.Resume.Resumed() {
		fmt.Fprintf(out, "journal: %v\n", res.Resume)
	}
	if ev := l.Doc.Evaluation; ev != nil {
		fmt.Fprintf(out, "evaluation: %v (|truth|=%d)\n", *ev, l.Doc.TruthPairs)
	}
	if opts.showPairs {
		w := bufio.NewWriter(out)
		defer w.Flush()
		for _, m := range l.Doc.Matches {
			fmt.Fprintf(w, "%d\t%d\n", l.Alice.Record(m[0]).EntityID, l.Bob.Record(m[1]).EntityID)
		}
	}
	return nil
}
