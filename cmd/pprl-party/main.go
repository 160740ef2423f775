// Command pprl-party runs one role of the distributed hybrid protocol
// over TCP: the two data holders and the querying party as three
// processes, possibly on three machines. Raw records never leave their
// holder; the wire carries classifier parameters, anonymized views, and
// Paillier ciphertexts.
//
// Topology: the querying party listens; both holders dial it and announce
// their role. Alice additionally listens for Bob's direct link (used for
// the encrypted shares of the SMC circuit).
//
//	# machine Q
//	pprl-party -role query -listen :9000 -theta 0.05 -allowance 0.015
//	# machine A
//	pprl-party -role alice -query q:9000 -peer-listen :9001 -data a.csv -k 32
//	# machine B
//	pprl-party -role bob -query q:9000 -peer a:9001 -data b.csv -k 32
//
// The querying party prints the matched record-index pairs; the holders
// map indexes back to their records.
//
// Holders can opt into differentially private blocking instead of
// k-anonymous generalization: -method dp -epsilon 2 -dp-seed <own seed>
// publishes Laplace-noised bin counts with member lists padded to match
// (the handle space is permuted, dummies behave like records downstream,
// and matches print as handles the holders translate locally); the
// session then requires both holders to opt in (the querying party
// refuses mixed sessions). The seed never crosses the wire and is
// domain-separated by role, so even identical -dp-seed values on the
// two holders draw uncorrelated noise.
//
// A fourth role joins a pprl-serve daemon's SMC worker fleet: the worker
// registers with the daemon's coordinator, receives encoded records per
// job, and serves comparison chunks until the coordinator hangs up.
//
//	pprl-party -role worker -coordinator daemon:9700 -lanes 2
//	# or listen and let the daemon dial out (-worker on pprl-serve):
//	pprl-party -role worker -worker-listen :9701
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pprl"
	"pprl/internal/cliutil"
	"pprl/internal/distrib"
	"pprl/internal/session"
	"pprl/internal/smc"
)

// queryOptions collects the querying party's parameters; flags fill it
// in main, tests fill it directly.
type queryOptions struct {
	schemaPath string
	listen     string
	qids       string
	theta      float64
	allowance  float64
	heurName   string
	keyBits    int
	smcWorkers int
	shuffle    bool
	// tier enables the Bloom triage tier; tierHigh/tierLow are its Dice
	// thresholds (0,0 = defaults).
	tier     string
	tierHigh float64
	tierLow  float64
	// journalPath starts a fresh durable journal; resumePath continues an
	// interrupted one. Mutually exclusive.
	journalPath string
	resumePath  string
	journalSync int
	// ctx interrupts the session between SMC batches.
	ctx context.Context
}

func main() {
	var (
		role        = flag.String("role", "", "query, alice, or bob (required)")
		listen      = flag.String("listen", "", "query: address to accept the two holders on")
		queryAddr   = flag.String("query", "", "holders: the querying party's address")
		peerListen  = flag.String("peer-listen", "", "alice: address to accept bob's peer link on")
		peerAddr    = flag.String("peer", "", "bob: alice's peer-link address")
		data        = flag.String("data", "", "holders: CSV file with this holder's relation")
		k           = flag.Int("k", 32, "holders: anonymity requirement")
		method      = flag.String("method", "entropy", "holders: anonymization method (entropy, tds, datafly, mondrian, or dp with -epsilon)")
		epsilon     = flag.Float64("epsilon", 0, "holders: differential-privacy budget for -method dp")
		dpDelta     = flag.Float64("dp-delta", 0, "holders: DP truncation mass for -method dp (0 = default)")
		dpSeed      = flag.Int64("dp-seed", 0, "holders: private DP noise/padding seed (never sent; role-separated, so a shared default is safe)")
		dpLevel     = flag.Int("dp-level", 0, "holders: VGH binning depth for -method dp (0 = default)")
		qids        = flag.String("qids", strings.Join(pprl.DefaultAdultQIDs(), ","), "query: quasi-identifier attributes")
		theta       = flag.Float64("theta", 0.05, "query: matching threshold")
		allowance   = flag.Float64("allowance", 0.015, "query: SMC allowance fraction")
		heurName    = flag.String("heuristic", "minAvgFirst", "query: selection heuristic")
		keyBits     = flag.Int("keybits", 1024, "query: Paillier key size")
		smcWorkers  = flag.Int("smc-workers", 0, "query: SMC batch-size scaling (0 = default chunking)")
		shuffle     = flag.Bool("shuffle", true, "query: hide which attribute failed (attribute shuffling)")
		tier        = flag.String("tier", "off", "query: triage tier between blocking and SMC (off or bloom)")
		tierHigh    = flag.Float64("tier-high", 0, "query: tier Dice threshold for Match (0 = default 0.95)")
		tierLow     = flag.Float64("tier-low", 0, "query: tier Dice threshold for NonMatch (0 = default 0.60)")
		tierKey     = flag.String("tier-key", "", "holders: shared secret keying the tier's CLK encodings (required when the query enables the tier)")
		schemaPath  = flag.String("schema", "", "schema manifest path (default: built-in Adult schema)")
		journalPath = flag.String("journal", "", "query: record the run to a durable journal at this path (crash-resumable)")
		resumePath  = flag.String("resume", "", "query: resume an interrupted run from its journal")
		journalSync = flag.Int("journal-sync", 0, "query: fsync the journal every N verdicts (0 = default batching)")

		coordinator  = flag.String("coordinator", "", "worker: dial this coordinator (pprl-serve -fleet-listen address) and register")
		workerListen = flag.String("worker-listen", "", "worker: listen here for a coordinator that dials out (-worker on pprl-serve)")
		workerName   = flag.String("worker-name", "", "worker: advertised name (empty = coordinator-assigned)")
		lanes        = flag.Int("lanes", 1, "worker: parallel SMC lanes for secure jobs")
	)
	flag.Parse()
	// SIGINT/SIGTERM cancel the querying party's context: it checkpoints
	// the journal at the next batch boundary, shuts the holders down, and
	// exits. Holders just die; their state is all derivable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch *role {
	case "query":
		err = runQuery(os.Stdout, queryOptions{
			schemaPath:  *schemaPath,
			listen:      *listen,
			qids:        *qids,
			theta:       *theta,
			allowance:   *allowance,
			heurName:    *heurName,
			keyBits:     *keyBits,
			smcWorkers:  *smcWorkers,
			shuffle:     *shuffle,
			tier:        *tier,
			tierHigh:    *tierHigh,
			tierLow:     *tierLow,
			journalPath: *journalPath,
			resumePath:  *resumePath,
			journalSync: *journalSync,
			ctx:         ctx,
		})
	case "alice":
		err = runHolder(ctx, *schemaPath, *queryAddr, *peerListen, "", *data, *k, *method, *tierKey, dpOptions{*epsilon, *dpDelta, *dpSeed, *dpLevel}, session.RoleAlice)
	case "bob":
		err = runHolder(ctx, *schemaPath, *queryAddr, "", *peerAddr, *data, *k, *method, *tierKey, dpOptions{*epsilon, *dpDelta, *dpSeed, *dpLevel}, session.RoleBob)
	case "worker":
		err = runWorker(ctx, *coordinator, *workerListen, *workerName, *lanes)
	default:
		err = fmt.Errorf("-role must be query, alice, bob, or worker")
	}
	if err != nil {
		if errors.Is(err, session.ErrInterrupted) {
			journal := *journalPath
			if journal == "" {
				journal = *resumePath
			}
			if journal != "" {
				fmt.Fprintf(os.Stderr, "pprl-party: %v\npprl-party: checkpoint saved; continue with -resume %s\n", err, journal)
			} else {
				fmt.Fprintln(os.Stderr, "pprl-party:", err)
			}
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "pprl-party:", err)
		os.Exit(1)
	}
}

// runQuery accepts both holders, identifies them, runs the session and
// prints the results.
func runQuery(out io.Writer, opts queryOptions) error {
	schema, err := cliutil.LoadSchemaOrAdult(opts.schemaPath)
	if err != nil {
		return err
	}
	if opts.listen == "" {
		return fmt.Errorf("query role needs -listen")
	}
	if opts.journalPath != "" && opts.resumePath != "" {
		return fmt.Errorf("-journal and -resume are mutually exclusive (resume appends to the existing journal)")
	}
	// Range-check the float knobs before any holder connects, with the
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
	h, err := cliutil.HeuristicByName(opts.heurName)
	if err != nil {
		return err
	}
	tierMode, err := cliutil.TierModeByName(opts.tier)
	if err != nil {
		return err
	}
	var tier *smc.TierParams
	if tierMode == pprl.TierBloom {
		tier = &smc.TierParams{} // session fills the CLK defaults
	}
	var journal pprl.JournalSink
	switch {
	case opts.journalPath != "":
		w, err := pprl.CreateJournal(opts.journalPath, pprl.JournalOptions{SyncEvery: opts.journalSync})
		if err != nil {
			return err
		}
		defer w.Close()
		journal = w
	case opts.resumePath != "":
		w, err := pprl.ResumeJournal(opts.resumePath, pprl.JournalOptions{SyncEvery: opts.journalSync})
		if err != nil {
			return err
		}
		defer w.Close()
		journal = w
	}
	l, err := net.Listen("tcp", opts.listen)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Fprintf(os.Stderr, "query: waiting for two holders on %s\n", l.Addr())

	var alice, bob smc.Conn
	for alice == nil || bob == nil {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		conn := smc.NewNetConn(c)
		role, err := session.Identify(conn)
		if err != nil {
			return err
		}
		switch {
		case role == session.RoleAlice && alice == nil:
			alice = conn
		case role == session.RoleBob && bob == nil:
			bob = conn
		default:
			conn.Close()
			return fmt.Errorf("duplicate hello for role %q", role)
		}
		fmt.Fprintf(os.Stderr, "query: %s connected\n", role)
	}

	res, err := session.RunQuery(alice, bob, session.QueryConfig{
		Schema:            schema,
		QIDs:              strings.Split(opts.qids, ","),
		Theta:             opts.theta,
		AllowanceFraction: opts.allowance,
		Heuristic:         h,
		KeyBits:           opts.keyBits,
		ShuffleAttributes: opts.shuffle,
		SMCWorkers:        opts.smcWorkers,
		Packing:           smc.PackingPacked,
		Tier:              tier,
		TierHigh:          opts.tierHigh,
		TierLow:           opts.tierLow,
		Journal:           journal,
		Context:           opts.ctx,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "views: alice %s k=%d (%d sequences), bob %s k=%d (%d sequences)\n",
		res.AliceView.Method, res.AliceView.K, res.AliceView.NumSequences(),
		res.BobView.Method, res.BobView.K, res.BobView.NumSequences())
	if res.DP != nil {
		fmt.Fprintf(out, "dp: composed ε=%v δ=%v over %d×%d published bins\n",
			res.DP.TotalEpsilon(), res.DP.TotalDelta(), res.DP.AliceBins, res.DP.BobBins)
	}
	fmt.Fprintf(out, "blocking: %.2f%% of %d pairs decided; %d unknown\n",
		100*res.BlockingEfficiency, res.TotalPairs, res.UnknownPairs)
	if tier != nil {
		fmt.Fprintf(out, "tier: %d match / %d non-match labeled free; %d uncertain\n",
			res.TierMatchedPairs, res.TierNonMatchedPairs, res.TierUncertainPairs)
	}
	fmt.Fprintf(out, "smc: %d invocations of %d allowed\n", res.Invocations, res.Allowance)
	if res.Resume.Resumed() {
		fmt.Fprintf(out, "journal: %v\n", res.Resume)
	}
	fmt.Fprintf(out, "matches: %d record pairs\n", len(res.Matches))
	w := bufio.NewWriter(out)
	defer w.Flush()
	for _, p := range res.Matches {
		fmt.Fprintf(w, "%d\t%d\n", p.I, p.J)
	}
	return nil
}

// dpOptions are the holder's differential-privacy parameters (-method
// dp); the zero value means k-anonymous generalization as before.
type dpOptions struct {
	epsilon float64
	delta   float64
	seed    int64
	level   int
}

// validate rejects inconsistent DP flags before anything connects.
func (d dpOptions) validate(method string) error {
	dp := cliutil.IsDPName(method)
	if dp && d.epsilon == 0 {
		return fmt.Errorf("-method dp requires -epsilon")
	}
	if !dp && d.epsilon != 0 {
		return fmt.Errorf("-epsilon requires -method dp, got -method %q", method)
	}
	if d.epsilon == 0 && d.delta == 0 && d.seed == 0 && d.level == 0 {
		return nil
	}
	if err := cliutil.EpsilonRange.Validate(d.epsilon); err != nil {
		return err
	}
	if d.delta != 0 {
		if err := cliutil.DeltaRange.Validate(d.delta); err != nil {
			return err
		}
	}
	if d.level < 0 {
		return fmt.Errorf("-dp-level must be ≥ 0, got %d", d.level)
	}
	return nil
}

// runHolder connects to the querying party, establishes the peer link,
// and serves the session.
func runHolder(ctx context.Context, schemaPath, queryAddr, peerListen, peerAddr, dataPath string, k int, method, tierKey string, dp dpOptions, role string) error {
	schema, err := cliutil.LoadSchemaOrAdult(schemaPath)
	if err != nil {
		return err
	}
	if queryAddr == "" || dataPath == "" {
		return fmt.Errorf("holder roles need -query and -data")
	}
	if queryAddr, err = cliutil.NormalizeAddr(queryAddr); err != nil {
		return fmt.Errorf("-query: %w", err)
	}
	if peerAddr != "" {
		if peerAddr, err = cliutil.NormalizeAddr(peerAddr); err != nil {
			return fmt.Errorf("-peer: %w", err)
		}
	}
	if err := dp.validate(method); err != nil {
		return err
	}
	var anon pprl.Anonymizer
	if !cliutil.IsDPName(method) {
		if anon, err = cliutil.AnonymizerByName(method); err != nil {
			return err
		}
	}
	f, err := os.Open(dataPath)
	if err != nil {
		return err
	}
	data, err := pprl.ReadCSV(schema, bufio.NewReader(f))
	f.Close()
	if err != nil {
		return err
	}

	qc, err := dialRetry(ctx, queryAddr)
	if err != nil {
		return fmt.Errorf("dialing querying party: %w", err)
	}
	query := smc.NewNetConn(qc)
	if err := session.Hello(query, role); err != nil {
		return err
	}

	var peer smc.Conn
	if role == session.RoleAlice {
		if peerListen == "" {
			return fmt.Errorf("alice needs -peer-listen")
		}
		pl, err := net.Listen("tcp", peerListen)
		if err != nil {
			return err
		}
		defer pl.Close()
		fmt.Fprintf(os.Stderr, "alice: waiting for bob on %s\n", pl.Addr())
		pc, err := pl.Accept()
		if err != nil {
			return err
		}
		peer = smc.NewNetConn(pc)
	} else {
		if peerAddr == "" {
			return fmt.Errorf("bob needs -peer")
		}
		pc, err := dialRetry(ctx, peerAddr)
		if err != nil {
			return fmt.Errorf("dialing alice: %w", err)
		}
		peer = smc.NewNetConn(pc)
	}

	cfg := session.HolderConfig{Data: data, K: k, Anonymizer: anon}
	if cliutil.IsDPName(method) {
		// Leave the anonymizer nil: the session installs the deterministic
		// binner and publishes the noised release (DESIGN.md §14).
		cfg.Epsilon = dp.epsilon
		cfg.DPDelta = dp.delta
		cfg.DPSeed = dp.seed
		cfg.DPLevel = dp.level
	}
	if tierKey != "" {
		cfg.TierKey = []byte(tierKey)
	}
	return session.RunHolder(query, peer, cfg, role == session.RoleAlice)
}

// runWorker joins a coordinator's SMC worker fleet and serves comparison
// chunks until the coordinator hangs up (or ctx cancels). The worker
// either dials the coordinator or listens for one dial-out connection.
func runWorker(ctx context.Context, coordinator, workerListen, name string, lanes int) error {
	logger := log.New(os.Stderr, "pprl-party: ", log.LstdFlags)
	opts := distrib.WorkerOptions{Name: name, Lanes: lanes, Logger: logger}
	var conn net.Conn
	switch {
	case coordinator != "" && workerListen != "":
		return fmt.Errorf("-coordinator and -worker-listen are mutually exclusive")
	case coordinator != "":
		addr, err := cliutil.NormalizeAddr(coordinator)
		if err != nil {
			return fmt.Errorf("-coordinator: %w", err)
		}
		conn, err = dialRetry(ctx, addr)
		if err != nil {
			return fmt.Errorf("dialing coordinator: %w", err)
		}
	case workerListen != "":
		ln, err := net.Listen("tcp", workerListen)
		if err != nil {
			return err
		}
		defer ln.Close()
		logger.Printf("worker: waiting for a coordinator on %s", ln.Addr())
		go func() {
			<-ctx.Done()
			ln.Close()
		}()
		conn, err = ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
	default:
		return fmt.Errorf("worker role needs -coordinator or -worker-listen")
	}
	// A signal closes the connection; ServeWorker treats that as the
	// coordinator hanging up and returns nil.
	go func() {
		<-ctx.Done()
		conn.Close()
	}()
	return distrib.ServeWorker(conn, opts)
}

// dialRetry dials with exponential backoff and jitter under a deadline:
// the peer may not be listening yet when the parties start in arbitrary
// order, but a peer that never appears must not hang the holder forever.
func dialRetry(ctx context.Context, addr string) (net.Conn, error) {
	dctx, cancel := context.WithTimeout(ctx, dialDeadline)
	defer cancel()
	return cliutil.DialRetry(dctx, "tcp", addr, cliutil.Backoff{})
}

// dialDeadline bounds how long a holder waits for a peer to start
// listening before giving up.
const dialDeadline = time.Minute
