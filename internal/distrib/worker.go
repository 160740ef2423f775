package distrib

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"pprl/internal/smc"
	"pprl/internal/wire"
)

// WorkerOptions configures one fleet worker.
type WorkerOptions struct {
	// Name is the worker's advertised identity; the coordinator
	// disambiguates or assigns one if empty or taken.
	Name string
	// Lanes is the worker's SMC parallelism for EngineSecure jobs
	// (sharded comparator lanes). ≤ 0 means 1.
	Lanes int
	// HeartbeatEvery is the liveness beacon cadence; ≤ 0 means 1s.
	HeartbeatEvery time.Duration
	// Logger receives worker lifecycle lines; nil is silent.
	Logger *log.Logger
	// FailAfterChunks, when > 0, drops the connection on receipt of the
	// chunk after that many served ones, before replying — the
	// fault-injection hook the testkit uses to kill a worker at a
	// deterministic chunk boundary. Dying with a chunk in flight means
	// the coordinator always has one to reassign and always sees the
	// death inside the batch.
	FailAfterChunks int
}

// ServeWorker runs the worker side of the fleet protocol on conn until
// the coordinator hangs up: register, then serve setup/chunk/teardown
// cycles for any number of jobs. It returns nil on a clean hangup (and
// on an injected fault) so process wrappers can exit 0.
func ServeWorker(conn net.Conn, opts WorkerOptions) error {
	if opts.Lanes <= 0 {
		opts.Lanes = 1
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = time.Second
	}
	logf := func(format string, args ...any) {
		if opts.Logger != nil {
			opts.Logger.Printf(format, args...)
		}
	}
	l := wire.NewLink(conn)
	if err := l.Send(&message{Kind: kindRegister, Name: opts.Name, Lanes: opts.Lanes}); err != nil {
		return fmt.Errorf("distrib: register: %w", err)
	}
	welcome := new(message)
	if err := l.Recv(welcome); err != nil {
		return fmt.Errorf("distrib: awaiting welcome: %w", err)
	}
	if welcome.Kind != kindWelcome {
		return fmt.Errorf("distrib: expected welcome, got message kind %d", welcome.Kind)
	}
	name := welcome.Name // the coordinator may have renamed us
	logf("distrib-worker: registered as worker=%s lanes=%d", name, opts.Lanes)

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(opts.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := l.Send(&message{Kind: kindHeartbeat}); err != nil {
					return
				}
			}
		}
	}()

	var (
		job    string
		engine Engine
		kBits  int
		lanes  int
		spec   *smc.Spec
		rows   [2][][]int64
		cmp    smc.Comparator
		served int
	)
	closeEngine := func() {
		if cmp != nil {
			cmp.Close()
			cmp = nil
		}
	}
	defer closeEngine()
	for {
		m := new(message)
		if err := l.Recv(m); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("distrib: worker receive: %w", err)
		}
		switch m.Kind {
		case kindSetup:
			closeEngine()
			job, engine, kBits, spec = m.Job, m.Engine, m.KeyBits, m.Spec
			lanes = opts.Lanes
			if m.Lanes > 0 && m.Lanes < lanes {
				lanes = m.Lanes
			}
			rows = [2][][]int64{}
		case kindRecords:
			if m.Holder < 0 || m.Holder > 1 || m.Base != len(rows[m.Holder]) {
				l.Send(&message{Kind: kindError, Job: job, Err: fmt.Sprintf("record chunk at row %d of holder %d out of order", m.Base, m.Holder)})
				continue
			}
			rows[m.Holder] = append(rows[m.Holder], m.Rows...)
		case kindSetupDone:
			var err error
			if cmp, err = buildEngine(engine, spec, rows[0], rows[1], kBits, lanes); err != nil {
				logf("distrib-worker: job=%s worker=%s engine build failed: %v", job, name, err)
				l.Send(&message{Kind: kindError, Job: job, Err: err.Error()})
				continue
			}
			logf("distrib-worker: job=%s worker=%s engine=%s ready (%d×%d records)", job, name, engine, len(rows[0]), len(rows[1]))
			if err := l.Send(&message{Kind: kindReady, Job: job}); err != nil {
				return fmt.Errorf("distrib: sending ready: %w", err)
			}
		case kindChunk:
			if cmp == nil {
				l.Send(&message{Kind: kindError, Job: job, Chunk: m.Chunk, Err: "chunk dispatched before setup completed"})
				continue
			}
			if opts.FailAfterChunks > 0 && served >= opts.FailAfterChunks {
				logf("distrib-worker: job=%s worker=%s injected fault on chunk %d, after %d served", job, name, m.Chunk, served)
				conn.Close()
				return nil
			}
			verdicts, err := cmp.CompareBatch(m.Pairs)
			if err != nil {
				l.Send(&message{Kind: kindError, Job: job, Chunk: m.Chunk, Err: err.Error()})
				continue
			}
			reply := &message{Kind: kindVerdicts, Job: job, Chunk: m.Chunk, Verdicts: verdicts, Bytes: cmp.BytesTransferred()}
			if rb, ok := cmp.(interface{ ResultBytes() int64 }); ok {
				reply.ResultB = rb.ResultBytes()
			}
			if dc, ok := cmp.(interface{ Decryptions() int64 }); ok {
				reply.Decs = dc.Decryptions()
			}
			if err := l.Send(reply); err != nil {
				return fmt.Errorf("distrib: sending verdicts: %w", err)
			}
			served++
		case kindTeardown:
			logf("distrib-worker: job=%s worker=%s teardown", job, name)
			closeEngine()
		case kindHeartbeat:
			// Coordinator pings are legal but unused today.
		default:
			l.Send(&message{Kind: kindError, Job: job, Err: fmt.Sprintf("unexpected message kind %d", m.Kind)})
		}
	}
}

// buildEngine constructs the job's comparison engine from shipped state.
func buildEngine(engine Engine, spec *smc.Spec, alice, bob [][]int64, keyBits, lanes int) (smc.Comparator, error) {
	if spec == nil {
		return nil, errors.New("distrib: setup carried no spec")
	}
	switch engine {
	case EngineOracle:
		return smc.NewPlainComparator(spec, alice, bob), nil
	case EngineSecure:
		cmp, err := smc.NewLocalSecureSharded(spec, alice, bob, keyBits, lanes)
		if err != nil {
			return nil, err // not a nil *ShardedComparator in a non-nil interface
		}
		return cmp, nil
	default:
		return nil, fmt.Errorf("distrib: unknown engine %d", int(engine))
	}
}
