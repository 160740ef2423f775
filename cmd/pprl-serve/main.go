// Command pprl-serve runs the linkage job service: a long-lived daemon
// that accepts linkage jobs over a JSON HTTP API, executes them on a
// bounded worker pool, and journals every SMC verdict so a killed or
// restarted daemon resumes in-flight jobs without re-spending their
// allowance.
//
//	pprl-serve -dir ./serve-state -data ./datasets -workers 2
//
//	# submit a job
//	curl -X POST localhost:8642/v1/jobs -d '{"alice_path":"a.csv","bob_path":"b.csv"}'
//	# poll it
//	curl localhost:8642/v1/jobs/job-000001
//	# fetch the labeling
//	curl localhost:8642/v1/jobs/job-000001/result
//
// SIGTERM/SIGINT drains gracefully: running jobs checkpoint their
// journals, queued jobs stay queued, and the next start recovers both. A
// second signal kills the daemon the usual way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"pprl/internal/cliutil"
	"pprl/internal/service"
)

// options collects the daemon's parameters; flags fill it in main,
// tests fill it directly.
type options struct {
	addr        string
	dir         string
	dataDir     string
	workers     int
	journalSync int
	pprof       bool
	// fleetListen accepts SMC worker registrations; fleetMinWorkers
	// gates distributed jobs on fleet size.
	fleetListen     string
	fleetMinWorkers int
	// ctx stops the daemon (the signal handler cancels it); ready, when
	// non-nil, receives the bound listener address once serving.
	ctx   context.Context
	ready chan<- string
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "listen", ":8642", "HTTP listen address")
	flag.StringVar(&opts.dir, "dir", "pprl-serve.d", "service state directory (job specs, journals, results)")
	flag.StringVar(&opts.dataDir, "data", "", "confine dataset references to this directory (empty = any path)")
	flag.IntVar(&opts.workers, "workers", 1, "concurrent linkage jobs")
	flag.IntVar(&opts.journalSync, "journal-sync", 0, "write and fsync a job's journal every N verdicts; a dataset's batch only writes, and fsyncs once at its commit (0 = journal default)")
	flag.BoolVar(&opts.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.StringVar(&opts.fleetListen, "fleet-listen", "", "accept SMC worker registrations on this address (workers dial it: pprl-party -role worker -coordinator)")
	flag.IntVar(&opts.fleetMinWorkers, "fleet-min-workers", 1, "workers a distributed job waits for before starting")
	flag.Parse()

	opts.ctx = cliutil.SignalContext()

	if err := run(os.Stderr, opts); err != nil {
		fmt.Fprintln(os.Stderr, "pprl-serve:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, opts options) error {
	logger := log.New(out, "pprl-serve: ", log.LstdFlags)

	srv, err := service.New(service.Config{
		Dir:             opts.dir,
		DataDir:         opts.dataDir,
		Workers:         opts.workers,
		JournalSync:     opts.journalSync,
		EnablePprof:     opts.pprof,
		FleetListen:     opts.fleetListen,
		FleetMinWorkers: opts.fleetMinWorkers,
		Logger:          logger,
	})
	if err != nil {
		return err
	}

	// Retry the bind: after a crash-restart the old socket can linger in
	// TIME_WAIT for a moment.
	ctx := opts.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	bindCtx, cancel := context.WithTimeout(ctx, time.Minute)
	ln, err := cliutil.ListenRetry(bindCtx, "tcp", opts.addr)
	cancel()
	if err != nil {
		return err
	}
	logger.Printf("serving on %s (state %s, %d workers)", ln.Addr(), opts.dir, opts.workers)
	if opts.ready != nil {
		opts.ready <- ln.Addr().String()
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, checkpoint running jobs, keep the
	// queue for the next start.
	logger.Printf("draining: checkpointing running jobs")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		hs.Close()
	}
	srv.Drain()
	logger.Printf("drained; interrupted jobs resume on next start")
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
