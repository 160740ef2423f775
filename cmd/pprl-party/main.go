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
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
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
	// CLI is the parameter block and the flags pprl-link shares.
	cliutil.CLI
	listen string
	// ctx interrupts the session between SMC batches.
	ctx context.Context
}

// holderOptions collects a data holder's parameters. Of the shared block
// a holder reads the schema, k and the DP parameters (-method dp).
type holderOptions struct {
	cliutil.CLI
	queryAddr  string
	peerListen string // alice: where bob's peer link is accepted
	peerAddr   string // bob: alice's peer-link address
	dataPath   string
	method     string
	tierKey    string
}

// partyFlags is pprl-party's command line: the shared block and what each
// role takes beside it.
type partyFlags struct {
	cliutil.CLI
	role, listen, queryAddr, peerListen, peerAddr, data, method, tierKey string
	coordinator, workerListen, workerName                                string
	lanes                                                                int
}

// register defines the command line on fs.
func (p *partyFlags) register(fs *flag.FlagSet) {
	p.Flags(fs)
	fs.StringVar(&p.role, "role", "", "query, alice, bob, or worker (required)")
	fs.StringVar(&p.listen, "listen", "", "query: address to accept the two holders on")
	fs.StringVar(&p.queryAddr, "query", "", "holders: the querying party's address")
	fs.StringVar(&p.peerListen, "peer-listen", "", "alice: address to accept bob's peer link on")
	fs.StringVar(&p.peerAddr, "peer", "", "bob: alice's peer-link address")
	fs.StringVar(&p.data, "data", "", "holders: CSV file with this holder's relation")
	fs.StringVar(&p.method, "method", "entropy", "holders: anonymization method (entropy, tds, datafly, mondrian, or dp with -epsilon)")
	fs.StringVar(&p.tierKey, "tier-key", "", "holders: shared secret keying the tier's CLK encodings (required when the query enables the tier)")

	fs.StringVar(&p.coordinator, "coordinator", "", "worker: dial this coordinator (pprl-serve -fleet-listen address) and register")
	fs.StringVar(&p.workerListen, "worker-listen", "", "worker: listen here for a coordinator that dials out (-worker on pprl-serve)")
	fs.StringVar(&p.workerName, "worker-name", "", "worker: advertised name (empty = coordinator-assigned)")
	fs.IntVar(&p.lanes, "lanes", 1, "worker: parallel SMC lanes for secure jobs")
}

func main() {
	var p partyFlags
	p.register(flag.CommandLine)
	flag.Parse()
	// SIGINT/SIGTERM cancel the querying party's context: it checkpoints
	// the journal at the next batch boundary, shuts the holders down, and
	// exits. Holders just die; their state is all derivable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch p.role {
	case "query":
		err = runQuery(os.Stdout, queryOptions{CLI: p.CLI, listen: p.listen, ctx: ctx})
	case session.RoleAlice, session.RoleBob:
		err = runHolder(ctx, holderOptions{CLI: p.CLI, queryAddr: p.queryAddr, peerListen: p.peerListen, peerAddr: p.peerAddr,
			dataPath: p.data, method: p.method, tierKey: p.tierKey}, p.role)
	case "worker":
		err = runWorker(ctx, p.coordinator, p.workerListen, p.workerName, p.lanes)
	default:
		err = fmt.Errorf("-role must be query, alice, bob, or worker")
	}
	if err != nil {
		p.Fail("pprl-party", err)
	}
}

// runQuery accepts both holders, identifies them, runs the session and
// prints the results.
func runQuery(out io.Writer, opts queryOptions) error {
	if opts.listen == "" {
		return fmt.Errorf("query role needs -listen")
	}
	// Everything the flags alone decide is refused here, before the
	// journal exists or a holder can connect (one rule set, shared with
	// pprl-link and the API).
	if err := opts.Validate(); err != nil {
		return err
	}
	if err := opts.OneLane(cliutil.FlagNames); err != nil {
		return err
	}
	schema, qids, err := opts.LoadSchema(nil)
	if err != nil {
		return err
	}
	cfg, err := opts.Query(schema, qids)
	if err != nil {
		return err
	}
	cfg.AllowanceFraction = opts.AllowanceFraction
	cfg.Context = opts.ctx
	jw, err := opts.OpenJournal()
	if err != nil {
		return err
	}
	if jw != nil {
		defer jw.Close()
		cfg.Journal = jw
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

	res, err := session.RunQuery(alice, bob, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "views: alice %s k=%d (%d sequences), bob %s k=%d (%d sequences)\n",
		res.AliceView.Method, res.AliceView.K, res.AliceView.NumSequences(),
		res.BobView.Method, res.BobView.K, res.BobView.NumSequences())
	if a, b := res.AliceView.DP, res.BobView.DP; a != nil {
		fmt.Fprintf(out, "dp: composed ε=%v δ=%v over %d×%d published bins\n",
			a.Epsilon+b.Epsilon, a.Delta+b.Delta, len(res.AliceView.Classes), len(res.BobView.Classes))
	}
	fmt.Fprintf(out, "blocking: %.2f%% of %d pairs decided; %d unknown\n",
		100*res.BlockingEfficiency, res.TotalPairs, res.UnknownPairs)
	if cfg.Tier {
		fmt.Fprintf(out, "tier: %d non-match labeled free; %d uncertain\n",
			res.TierNonMatchedPairs, res.TierUncertainPairs)
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

// runHolder connects to the querying party, establishes the peer link,
// and serves the session.
func runHolder(ctx context.Context, opts holderOptions, role string) error {
	if opts.queryAddr == "" || opts.dataPath == "" {
		return fmt.Errorf("holder roles need -query and -data")
	}
	queryAddr, err := cliutil.NormalizeAddr(opts.queryAddr)
	if err != nil {
		return fmt.Errorf("-query: %w", err)
	}
	peerAddr := opts.peerAddr
	if peerAddr != "" {
		if peerAddr, err = cliutil.NormalizeAddr(peerAddr); err != nil {
			return fmt.Errorf("-peer: %w", err)
		}
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	if err := opts.ValidateAnonymizer(cliutil.FlagNames, "-method", opts.method, opts.DPLevel); err != nil {
		return err
	}
	cfg := session.HolderConfig{K: opts.K}
	if cliutil.IsDPName(opts.method) {
		// Leave the anonymizer nil: the session installs the deterministic
		// binner and publishes the noised release (DESIGN.md §14).
		cfg.Epsilon, cfg.DPDelta, cfg.DPSeed, cfg.DPLevel = opts.Epsilon, opts.DPDelta, opts.DPSeed, opts.DPLevel
	} else if cfg.Anonymizer, err = cliutil.AnonymizerByName(opts.method); err != nil {
		return err
	}
	if opts.tierKey != "" {
		cfg.TierKey = []byte(opts.tierKey)
	}
	schema, err := cliutil.LoadSchemaOrAdult(opts.SchemaPath)
	if err != nil {
		return err
	}
	f, err := os.Open(opts.dataPath)
	if err != nil {
		return err
	}
	cfg.Data, err = pprl.ReadCSV(schema, bufio.NewReader(f))
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
		if opts.peerListen == "" {
			return fmt.Errorf("alice needs -peer-listen")
		}
		pl, err := net.Listen("tcp", opts.peerListen)
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
	return cliutil.DialRetry(dctx, "tcp", addr)
}

// dialDeadline bounds how long a holder waits for a peer to start
// listening before giving up.
const dialDeadline = time.Minute
