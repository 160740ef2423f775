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
//	pprl-party -role query -listen :9000 -theta 0.05 -allowance 0.015          # machine Q
//	pprl-party -role alice -query q:9000 -peer-listen :9001 -data a.csv -k 32  # machine A
//	pprl-party -role bob -query q:9000 -peer a:9001 -data b.csv -k 32          # machine B
//
// The querying party prints the matched record-index pairs; the holders
// map indexes back to their records.
//
// The role comes first (-role R or -role=R), and each role takes only the
// flags it reads, which pprl-party -role R -h lists; another role's flag
// is a usage error. The query takes -listen, the schema, the decision
// rule, the budget, the key size and the journal; a holder -query,
// -peer-listen (alice) or -peer (bob), -data, the schema, k, the
// anonymization method and the DP release; the worker -coordinator,
// -worker-name and -lanes. There is no triage tier here: a session never
// sends the querying party a CLK (pprl-link -tier runs it in one trust
// domain).
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
// dials the daemon's coordinator (pprl-serve -fleet-listen) and
// registers, receives encoded records per job, and serves comparison
// chunks until the coordinator hangs up. A worker that restarts simply
// registers again.
//
//	pprl-party -role worker -coordinator daemon:9700 -lanes 2
//
// SIGINT or SIGTERM ends every role: a party waiting for its peers stops,
// the querying party checkpoints its journal at the next batch boundary
// and shuts the holders down, and a holder or worker closes its links. A
// second signal kills the process the usual way. The same query command
// again, against the same holders, resumes a journaled session: the
// journal's manifest decides whether the run is new, and a journal of
// other parameters or other views is refused.
package main

import (
	"bufio"
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"pprl/internal/cliutil"
	"pprl/internal/distrib"
	"pprl/internal/session"
	"pprl/internal/smc"
)

// queryOptions collects the querying party's parameters; command's flags
// fill it, tests fill it directly.
type queryOptions struct {
	cliutil.CLI // the QueryFlags of the block
	listen      string
}

// holderOptions collects a data holder's parameters.
type holderOptions struct {
	cliutil.CLI // the HolderFlags of the block
	queryAddr   string
	peer        string // alice: where bob's peer link is accepted; bob: alice's address
	dataPath    string
	method      string
}

func main() {
	args, role := os.Args[1:], ""
	if len(args) > 1 && args[0] == "-role" {
		role, args = args[1], args[2:]
	} else if len(args) > 0 && strings.HasPrefix(args[0], "-role=") {
		role, args = args[0][len("-role="):], args[1:]
	}
	fs := flag.NewFlagSet("pprl-party -role "+role, flag.ExitOnError)
	run, cli := command(role, fs)
	if run == nil {
		fmt.Fprintln(os.Stderr, "usage: pprl-party -role query|alice|bob|worker [flags]; the role comes first, and -role R -h lists R's flags")
		os.Exit(2)
	}
	fs.Parse(args)
	if fs.NArg() > 0 { // parsing stopped there, so what follows would be ignored
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}
	if err := run(cliutil.SignalContext()); err != nil {
		cli.Fail("pprl-party", err)
	}
}

// command defines role's flags on fs and returns the run they fill in,
// with the block Fail reads (only the query journals); run is nil for an
// unknown role.
func command(role string, fs *flag.FlagSet) (run func(context.Context) error, cli *cliutil.CLI) {
	switch role {
	case "query":
		q := new(queryOptions)
		q.Flags(fs, cliutil.QueryFlags)
		fs.StringVar(&q.listen, "listen", "", "address to accept the two holders on")
		return func(ctx context.Context) error { return runQuery(ctx, os.Stdout, *q) }, &q.CLI
	case session.RoleAlice, session.RoleBob:
		h := new(holderOptions)
		h.Flags(fs, cliutil.HolderFlags)
		fs.Func("query", "the querying party's address", func(a string) (err error) { h.queryAddr, err = cliutil.NormalizeAddr(a); return err })
		if role == session.RoleAlice {
			fs.StringVar(&h.peer, "peer-listen", "", "address to accept bob's peer link on")
		} else {
			fs.Func("peer", "alice's peer-link address", func(a string) (err error) { h.peer, err = cliutil.NormalizeAddr(a); return err })
		}
		fs.StringVar(&h.dataPath, "data", "", "CSV file with this holder's relation")
		fs.StringVar(&h.method, "method", "entropy", "anonymization method (entropy, tds, datafly, mondrian, or dp with -epsilon)")
		return func(ctx context.Context) error { return runHolder(ctx, *h, role) }, &h.CLI
	case "worker":
		var coordinator string
		fs.Func("coordinator", "the coordinator to dial and register with: a pprl-serve -fleet-listen address (required)", func(a string) (err error) { coordinator, err = cliutil.NormalizeAddr(a); return err })
		name := fs.String("worker-name", "", "advertised name (empty = coordinator-assigned)")
		lanes := fs.Int("lanes", 1, "parallel SMC lanes for secure jobs")
		return func(ctx context.Context) error { return runWorker(ctx, coordinator, *name, *lanes) }, new(cliutil.CLI)
	}
	return nil, nil
}

// runQuery accepts both holders, identifies them, runs the session and
// prints the results.
func runQuery(ctx context.Context, out io.Writer, opts queryOptions) error {
	if opts.listen == "" {
		return fmt.Errorf("query role needs -listen")
	}
	// Everything the flags alone decide is refused here, before the
	// journal exists or a holder can connect (one rule set, shared with
	// pprl-link and the API).
	if err := opts.Validate(); err != nil {
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
	cfg.Context = ctx
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

	context.AfterFunc(ctx, func() { l.Close() })
	var alice, bob smc.Conn
	for alice == nil || bob == nil {
		c, err := l.Accept()
		if err != nil {
			return fmt.Errorf("waiting for holders: %w", cmp.Or(ctx.Err(), err))
		}
		identified := context.AfterFunc(ctx, func() { c.Close() })
		conn := smc.NewNetConn(c)
		role, err := session.Identify(conn)
		if !identified() || err != nil { // !identified(): the context closed c
			return fmt.Errorf("waiting for holders: %w", cmp.Or(ctx.Err(), err))
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
	fmt.Fprintf(out, "smc: %d invocations of %d allowed\n", res.Invocations, res.Allowance)
	fmt.Fprintf(out, "latency: %s\n", res.Latency.String())
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
	if opts.queryAddr == "" || opts.dataPath == "" || opts.peer == "" {
		return fmt.Errorf("holder roles need -query, -data and -peer-listen (alice) or -peer (bob)")
	}
	// The flags are refused before the data is read or the query dialed.
	if err := opts.ValidateDP(cliutil.FlagNames); err != nil {
		return err
	}
	if err := opts.ValidateAnonymizer(cliutil.FlagNames, "-method", opts.method); err != nil {
		return err
	}
	if err := opts.ValidateDPLevel(cliutil.FlagNames, opts.DPLevel); err != nil {
		return err
	}
	if !cliutil.IsDPName(opts.method) { // a dp holder bins at a fixed depth and ignores k
		if err := cliutil.ValidateK(cliutil.FlagNames, opts.K); err != nil {
			return err
		}
	}
	schema, err := cliutil.LoadSchemaOrAdult(opts.SchemaPath)
	if err != nil {
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
	if cfg.Data, err = cliutil.ReadRelation(schema, opts.dataPath); err != nil {
		return err
	}

	// A signal closes every listener and connection of the holder, which
	// ends whatever waits on one.
	qc, err := dialRetry(ctx, opts.queryAddr)
	if err != nil {
		return fmt.Errorf("dialing querying party: %w", err)
	}
	context.AfterFunc(ctx, func() { qc.Close() })
	query := smc.NewNetConn(qc)
	if err := session.Hello(query, role); err != nil {
		return err
	}

	var pc net.Conn
	if role == session.RoleAlice {
		pl, err := net.Listen("tcp", opts.peer)
		if err != nil {
			return err
		}
		defer pl.Close()
		context.AfterFunc(ctx, func() { pl.Close() })
		fmt.Fprintf(os.Stderr, "alice: waiting for bob on %s\n", pl.Addr())
		if pc, err = pl.Accept(); err != nil {
			return fmt.Errorf("waiting for bob: %w", cmp.Or(ctx.Err(), err))
		}
	} else if pc, err = dialRetry(ctx, opts.peer); err != nil {
		return fmt.Errorf("dialing alice: %w", err)
	}
	context.AfterFunc(ctx, func() { pc.Close() })
	return session.RunHolder(query, smc.NewNetConn(pc), cfg, role == session.RoleAlice)
}

// runWorker dials a coordinator, joins its SMC worker fleet and serves
// comparison chunks until the coordinator hangs up (or ctx cancels).
func runWorker(ctx context.Context, coordinator, name string, lanes int) error {
	if coordinator == "" {
		return fmt.Errorf("worker role needs -coordinator")
	}
	conn, err := dialRetry(ctx, coordinator)
	if err != nil {
		return fmt.Errorf("dialing coordinator: %w", err)
	}
	// A signal closes the connection; ServeWorker treats that as the
	// coordinator hanging up and returns nil.
	context.AfterFunc(ctx, func() { conn.Close() })
	logger := log.New(os.Stderr, "pprl-party: ", log.LstdFlags)
	return distrib.ServeWorker(conn, distrib.WorkerOptions{Name: name, Lanes: lanes, Logger: logger})
}

// dialRetry dials with exponential backoff and jitter for up to a minute:
// the peer may not be listening yet when the parties start in arbitrary
// order, but a peer that never appears must not hang the holder forever.
func dialRetry(ctx context.Context, addr string) (net.Conn, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	return cliutil.DialRetry(ctx, "tcp", addr)
}
