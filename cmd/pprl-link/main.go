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
// (per-holder budget ε, so a run composes to 2ε) and the dummy padding
// is charged against the SMC allowance (DESIGN.md §14).
//
// With -secure the Unknown pairs are resolved by the real three-party
// Paillier protocol; without it the plaintext cost-model oracle is used
// (same verdicts, no cryptography — see DESIGN.md §3). -eval additionally
// scores the result against exact ground truth, which is only possible
// because this command happens to hold both files.
//
// Long runs can be made crash-resumable with a durable journal:
//
//	pprl-link -a alice.csv -b bob.csv -secure -journal run.wal
//	# … ^C, crash, or power loss …
//	pprl-link -a alice.csv -b bob.csv -secure -resume run.wal
//
// SIGINT/SIGTERM checkpoint the journal at the next chunk boundary and
// exit; -resume replays the purchased verdicts and spends only the
// remaining allowance. A resume with changed flags or changed input files
// is refused.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pprl"
	"pprl/internal/cliutil"
	"pprl/internal/distrib"
)

// options collects everything the pipeline run needs; flags fill it in
// main, tests fill it directly.
type options struct {
	schemaPath   string
	aPath, bPath string
	k            int
	// anonName selects the holders' anonymization method; "dp" switches
	// to differentially private blocking and requires epsilon > 0.
	anonName string
	// epsilon is the per-holder DP budget; dpDelta, dpSeed and dpLevel
	// are the remaining dpblock parameters (0 = defaults).
	epsilon    float64
	dpDelta    float64
	dpSeed     int64
	dpLevel    int
	theta      float64
	allowance  float64
	heurName   string
	strategy   string
	qids       string
	secure     bool
	keyBits    int
	smcWorkers int
	// workers are SMC fleet worker addresses (pprl-party -role worker
	// -worker-listen …); non-empty stripes the SMC step across them.
	workers []string
	// tier enables the Bloom triage tier between blocking and SMC;
	// tierHigh/tierLow are its Dice thresholds (0,0 = defaults).
	tier     string
	tierHigh float64
	tierLow  float64
	// dedup links -a against itself through the incremental engine
	// (unordered pairs i < j); level is its fixed binning depth.
	dedup     bool
	level     int
	eval      bool
	showPairs bool
	jsonOut   bool
	// journalPath starts a fresh durable journal; resumePath continues an
	// interrupted one. Mutually exclusive.
	journalPath string
	resumePath  string
	journalSync int
	// ctx interrupts the run at SMC chunk boundaries (nil = uninterruptible).
	ctx context.Context
}

func main() {
	var opts options
	flag.StringVar(&opts.aPath, "a", "", "first data holder's CSV (required)")
	flag.StringVar(&opts.bPath, "b", "", "second data holder's CSV (required)")
	flag.IntVar(&opts.k, "k", 32, "anonymity requirement for both holders")
	flag.StringVar(&opts.anonName, "anon", "", "anonymization method: entropy (default), tds, datafly, mondrian, or dp (noised blocking; requires -epsilon)")
	flag.Float64Var(&opts.epsilon, "epsilon", 0, "per-holder differential-privacy budget for -anon dp")
	flag.Float64Var(&opts.dpDelta, "dp-delta", 0, "DP truncation mass for -anon dp (0 = default)")
	flag.Int64Var(&opts.dpSeed, "dp-seed", 0, "deterministic DP noise seed (alice uses the seed, bob seed+1)")
	flag.IntVar(&opts.dpLevel, "dp-level", 0, "VGH binning depth for -anon dp (0 = default)")
	flag.Float64Var(&opts.theta, "theta", 0.05, "matching threshold θ for every attribute")
	flag.Float64Var(&opts.allowance, "allowance", 0.015, "SMC allowance as a fraction of all record pairs")
	flag.StringVar(&opts.heurName, "heuristic", "minAvgFirst", "SMC selection heuristic: minFirst, maxLast, minAvgFirst")
	flag.StringVar(&opts.strategy, "strategy", "precision", "residual labeling: precision, recall, classifier")
	flag.StringVar(&opts.qids, "qids", strings.Join(pprl.DefaultAdultQIDs(), ","), "comma-separated quasi-identifier attributes")
	flag.BoolVar(&opts.secure, "secure", false, "run the real Paillier SMC protocol instead of the cost-model oracle")
	flag.IntVar(&opts.keyBits, "keybits", 1024, "Paillier key size for -secure")
	flag.IntVar(&opts.smcWorkers, "smc-workers", 0, "parallel SMC lanes for -secure (0 = GOMAXPROCS)")
	var workerAddrs cliutil.WorkerAddrs
	flag.Var(&workerAddrs, "worker", "SMC fleet worker address (repeatable, or comma-separated); stripes the SMC step across the fleet")
	flag.StringVar(&opts.tier, "tier", "off", "triage tier between blocking and SMC: off or bloom (Dice over CLK encodings)")
	flag.Float64Var(&opts.tierHigh, "tier-high", 0, "tier Dice threshold for Match (0 = default 0.95)")
	flag.Float64Var(&opts.tierLow, "tier-low", 0, "tier Dice threshold for NonMatch (0 = default 0.60)")
	flag.BoolVar(&opts.dedup, "dedup", false, "deduplicate -a against itself (unordered pairs; -b not allowed)")
	flag.IntVar(&opts.level, "level", 0, "fixed binning depth for -dedup (0 = default)")
	flag.BoolVar(&opts.eval, "eval", false, "score against exact ground truth (requires both files, which this command has)")
	flag.BoolVar(&opts.showPairs, "pairs", false, "print matched entity-ID pairs")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit one machine-readable JSON document instead of text")
	flag.StringVar(&opts.schemaPath, "schema", "", "schema manifest path (default: built-in Adult schema)")
	flag.StringVar(&opts.journalPath, "journal", "", "record the run to a durable journal at this path (crash-resumable)")
	flag.StringVar(&opts.resumePath, "resume", "", "resume an interrupted run from its journal")
	flag.IntVar(&opts.journalSync, "journal-sync", 0, "fsync the journal every N verdicts (0 = default batching)")
	flag.Parse()
	opts.workers = workerAddrs

	// SIGINT/SIGTERM cancel the run's context: the engine drains the
	// in-flight SMC chunk (sharded lanes finish cleanly), checkpoints the
	// journal, and Link returns ErrInterrupted. A second signal kills the
	// process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.ctx = ctx

	if err := run(os.Stdout, opts); err != nil {
		if errors.Is(err, pprl.ErrInterrupted) {
			journal := opts.journalPath
			if journal == "" {
				journal = opts.resumePath
			}
			if journal != "" {
				fmt.Fprintf(os.Stderr, "pprl-link: %v\npprl-link: checkpoint saved; continue with -resume %s\n", err, journal)
			} else {
				fmt.Fprintln(os.Stderr, "pprl-link:", err)
			}
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "pprl-link:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, opts options) error {
	if opts.aPath == "" || (opts.bPath == "" && !opts.dedup) {
		return fmt.Errorf("-a and -b are required")
	}
	if opts.journalPath != "" && opts.resumePath != "" {
		return fmt.Errorf("-journal and -resume are mutually exclusive (resume appends to the existing journal)")
	}
	// Range-check the float knobs before touching any data, with the
	// shared error text (cliutil ranges).
	if err := cliutil.ThetaRange.Validate(opts.theta); err != nil {
		return err
	}
	if err := cliutil.AllowanceFractionRange.Validate(opts.allowance); err != nil {
		return err
	}
	if err := cliutil.TierBand(opts.tierLow, opts.tierHigh); err != nil {
		return err
	}
	if opts.dedup {
		return runDedup(out, opts)
	}
	if opts.level != 0 {
		return fmt.Errorf("-level applies only to -dedup")
	}
	dp := cliutil.IsDPName(opts.anonName)
	if dp && opts.epsilon == 0 {
		return fmt.Errorf("-anon dp requires -epsilon")
	}
	if !dp && opts.epsilon != 0 {
		return fmt.Errorf("-epsilon requires -anon dp, got -anon %q", opts.anonName)
	}
	if opts.epsilon != 0 || opts.dpDelta != 0 || opts.dpSeed != 0 || opts.dpLevel != 0 {
		if err := cliutil.EpsilonRange.Validate(opts.epsilon); err != nil {
			return err
		}
		if opts.dpDelta != 0 {
			if err := cliutil.DeltaRange.Validate(opts.dpDelta); err != nil {
				return err
			}
		}
		if opts.dpLevel < 0 {
			return fmt.Errorf("-dp-level must be ≥ 0, got %d", opts.dpLevel)
		}
	}
	schema, err := loadSchema(opts.schemaPath)
	if err != nil {
		return err
	}
	alice, err := readCSV(schema, opts.aPath)
	if err != nil {
		return err
	}
	bob, err := readCSV(schema, opts.bPath)
	if err != nil {
		return err
	}

	cfg := pprl.DefaultConfig(strings.Split(opts.qids, ","))
	cfg.AliceK, cfg.BobK = opts.k, opts.k
	cfg.Theta = opts.theta
	cfg.AllowanceFraction = opts.allowance
	if dp {
		// Leave the anonymizers nil: the config installs the deterministic
		// binner from these parameters.
		cfg.Epsilon = opts.epsilon
		cfg.DPDelta = opts.dpDelta
		cfg.DPSeed = opts.dpSeed
		cfg.DPLevel = opts.dpLevel
	} else if opts.anonName != "" {
		anon, err := cliutil.AnonymizerByName(opts.anonName)
		if err != nil {
			return err
		}
		cfg.AliceAnonymizer, cfg.BobAnonymizer = anon, anon
	}
	if cfg.Heuristic, err = cliutil.HeuristicByName(opts.heurName); err != nil {
		return err
	}
	if cfg.Strategy, err = cliutil.StrategyByName(opts.strategy); err != nil {
		return err
	}
	if opts.secure {
		cfg.Comparator = pprl.SecureComparatorFactory(opts.keyBits)
	}
	if len(opts.workers) > 0 {
		pool := distrib.NewPool(distrib.PoolOptions{Logger: log.New(os.Stderr, "pprl-link: ", log.LstdFlags)})
		defer pool.Close()
		dctx := opts.ctx
		if dctx == nil {
			dctx = context.Background()
		}
		dctx, cancel := context.WithTimeout(dctx, time.Minute)
		defer cancel()
		for _, addr := range opts.workers {
			conn, err := cliutil.DialRetry(dctx, "tcp", addr, cliutil.Backoff{})
			if err != nil {
				return fmt.Errorf("worker %s: %w", addr, err)
			}
			if err := pool.AddConn(conn); err != nil {
				return fmt.Errorf("worker %s: %w", addr, err)
			}
		}
		jc := distrib.JobConfig{Job: "link"}
		if opts.secure {
			jc.Engine = distrib.EngineSecure
			jc.KeyBits = opts.keyBits
		}
		cfg.Comparator = pool.Factory(jc)
	}
	cfg.SMCWorkers = opts.smcWorkers
	if cfg.Tier, err = cliutil.TierModeByName(opts.tier); err != nil {
		return err
	}
	cfg.TierHigh, cfg.TierLow = opts.tierHigh, opts.tierLow
	cfg.Context = opts.ctx

	switch {
	case opts.journalPath != "":
		w, err := pprl.CreateJournal(opts.journalPath, pprl.JournalOptions{SyncEvery: opts.journalSync})
		if err != nil {
			return err
		}
		defer w.Close()
		cfg.Journal = w
	case opts.resumePath != "":
		w, err := pprl.ResumeJournal(opts.resumePath, pprl.JournalOptions{SyncEvery: opts.journalSync})
		if err != nil {
			return err
		}
		defer w.Close()
		cfg.Journal = w
	}

	res, err := pprl.Link(pprl.Holder{Data: alice}, pprl.Holder{Data: bob}, cfg)
	if err != nil {
		return err
	}
	if opts.jsonOut {
		return writeJSON(out, opts, alice, bob, res)
	}
	fmt.Fprintln(out, res.Summary())
	if res.DP != nil {
		fmt.Fprintf(out, "dp: ε=%v per holder (composed ε=%v, δ=%v) bins=%d+%d dummies=%d dummy-spent=%d\n",
			res.DP.AliceEpsilon, res.DP.TotalEpsilon, res.DP.TotalDelta,
			res.DP.AliceBins, res.DP.BobBins, res.DP.AliceDummies+res.DP.BobDummies, res.DP.DummySpent)
	}
	if res.TierMode() != pprl.TierOff {
		fmt.Fprintf(out, "timings: anonymize=%v+%v blocking=%v tier=%v smc=%v\n",
			res.Timings.AnonymizeAlice, res.Timings.AnonymizeBob, res.Timings.Blocking, res.Timings.Tier, res.Timings.SMC)
	} else {
		fmt.Fprintf(out, "timings: anonymize=%v+%v blocking=%v smc=%v\n",
			res.Timings.AnonymizeAlice, res.Timings.AnonymizeBob, res.Timings.Blocking, res.Timings.SMC)
	}
	if opts.secure {
		fmt.Fprintf(out, "smc engine: workers=%d rate=%.1f comparisons/sec bytes=%d\n",
			res.SMCWorkers, res.SMCRate(), res.SMCBytes)
	}
	if res.Resume.Resumed() {
		fmt.Fprintf(out, "journal: %v\n", res.Resume)
	}

	if opts.eval {
		truth, err := pprl.TruePairs(alice, bob, res.QIDs(), res.Rule())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "evaluation: %v (|truth|=%d)\n", res.Evaluate(truth), len(truth))
	}
	if opts.showPairs {
		w := bufio.NewWriter(out)
		defer w.Flush()
		for _, m := range res.Matches() {
			fmt.Fprintf(w, "%d\t%d\n", alice.Record(m[0]).EntityID, bob.Record(m[1]).EntityID)
		}
	}
	return nil
}

// writeJSON emits the whole run as one JSON document built from the
// stable marshalers on Result and Confusion, so scripts and the job
// service share one wire format instead of scraping the text output.
func writeJSON(out io.Writer, opts options, alice, bob *pprl.Dataset, res *pprl.Result) error {
	doc := struct {
		Result     *pprl.Result    `json:"result"`
		Evaluation *pprl.Confusion `json:"evaluation,omitempty"`
		TruthPairs *int            `json:"truth_pairs,omitempty"`
		Matches    [][2]int        `json:"matches,omitempty"`
	}{Result: res}
	if opts.eval {
		truth, err := pprl.TruePairs(alice, bob, res.QIDs(), res.Rule())
		if err != nil {
			return err
		}
		ev := res.Evaluate(truth)
		n := len(truth)
		doc.Evaluation = &ev
		doc.TruthPairs = &n
	}
	if opts.showPairs {
		doc.Matches = make([][2]int, 0)
		for _, m := range res.Matches() {
			doc.Matches = append(doc.Matches, [2]int{alice.Record(m[0]).EntityID, bob.Record(m[1]).EntityID})
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func readCSV(schema *pprl.Schema, path string) (*pprl.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pprl.ReadCSV(schema, bufio.NewReader(f))
}

// loadSchema resolves the -schema flag.
func loadSchema(path string) (*pprl.Schema, error) {
	return cliutil.LoadSchemaOrAdult(path)
}
