// Package distrib stripes the SMC protocol lanes of a linkage run across
// a fleet of worker processes. A coordinator (Pool) partitions the
// budgeted Unknown-pair list into chunks and dispatches them to
// registered workers; each worker hosts a complete local comparison
// engine over its own copy of the encoded records, so a chunk is
// self-contained and can be reassigned wholesale when a worker dies.
// Verdicts are merged positionally, which keeps the stitched result
// byte-identical to the single-process engine no matter how chunks were
// scheduled — and the crash-resume journal (internal/journal) makes
// reassignment free of double-spending: a verdict is recorded exactly
// once, when its chunk is delivered.
//
// The trust model is unchanged from the single-process engine: verdicts
// are Paillier-key-independent, so each worker generates its own fresh
// key pair and runs the three-party protocol locally (PROTOCOL.md §
// "Distribution"). The coordinator never sees ciphertexts, only the
// boolean verdicts the querying party would learn anyway.
package distrib

import (
	"fmt"

	"pprl/internal/smc"
	"pprl/internal/wire"
)

// Engine selects the comparison engine each worker builds for a job.
type Engine int

const (
	// EngineOracle runs the plaintext oracle (smc.PlainComparator) on
	// every worker: zero cryptographic cost, used by experiments that
	// charge the paper's invocation-count cost model, and by tests that
	// pin fleet verdicts to the local engine's.
	EngineOracle Engine = iota
	// EngineSecure runs the full three-party Paillier protocol inside
	// each worker, sharded across the worker's lanes.
	EngineSecure
)

func (e Engine) String() string {
	switch e {
	case EngineOracle:
		return "oracle"
	case EngineSecure:
		return "secure"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// msgKind discriminates the coordinator↔worker messages.
type msgKind int

const (
	kindRegister  msgKind = iota + 1 // worker → coordinator: name, lanes
	kindWelcome                      // coordinator → worker: accepted
	kindSetup                        // job parameters
	kindRecords                      // one chunk of a holder's encoded rows
	kindSetupDone                    // all records shipped; build the engine
	kindReady                        // worker's engine is up
	kindChunk                        // compare these pairs
	kindVerdicts                     // chunk results + cumulative stats
	kindHeartbeat                    // worker liveness
	kindTeardown                     // job over; release the engine
	kindError                        // either direction: something failed
)

// message is the single frame type both directions share; Code declares
// which fields each kind carries.
type message struct {
	Kind msgKind

	// Registration.
	Name  string
	Lanes int

	// Job setup.
	Job     string
	Engine  Engine
	KeyBits int
	Spec    *smc.Spec

	// Record shipping: rows [Base, Base+len(Rows)) of holder Holder
	// (0 = Alice, 1 = Bob). A holder's chunks arrive in order on one link,
	// so Base is always the number of that holder's rows shipped so far.
	Holder int
	Base   int
	Rows   [][]int64

	// Chunk dispatch and results. Stats are cumulative per job on the
	// sending worker, so the coordinator keeps only the latest value.
	Chunk    int
	Pairs    [][2]int
	Verdicts []bool
	Bytes    int64
	ResultB  int64
	Decs     int64

	Err string
}

// Code declares message's frame layout (PROTOCOL.md's fleet table).
func (m *message) Code(c *wire.Coder) {
	wire.Kind(c, &m.Kind)
	switch m.Kind {
	case kindRegister:
		c.String(&m.Name)
		wire.Int(c, &m.Lanes)
	case kindWelcome:
		c.String(&m.Name)
	case kindSetup:
		c.String(&m.Job)
		wire.Int(c, &m.Engine)
		wire.Int(c, &m.KeyBits)
		wire.Opt(c, &m.Spec, func(c *wire.Coder, s *smc.Spec) { s.Code(c) })
		wire.Int(c, &m.Lanes)
	case kindRecords:
		wire.Int(c, &m.Holder)
		wire.Int(c, &m.Base)
		wire.Slice(c, &m.Rows, func(c *wire.Coder, row *[]int64) { wire.Slice(c, row, wire.Int[int64]) })
	case kindSetupDone, kindReady, kindTeardown:
		c.String(&m.Job)
	case kindChunk:
		c.String(&m.Job)
		wire.Int(c, &m.Chunk)
		wire.Slice(c, &m.Pairs, func(c *wire.Coder, p *[2]int) {
			wire.Int(c, &p[0])
			wire.Int(c, &p[1])
		})
	case kindVerdicts:
		c.String(&m.Job)
		wire.Int(c, &m.Chunk)
		wire.Slice(c, &m.Verdicts, (*wire.Coder).Bool)
		wire.Int(c, &m.Bytes)
		wire.Int(c, &m.ResultB)
		wire.Int(c, &m.Decs)
	case kindHeartbeat:
	case kindError:
		c.String(&m.Job)
		wire.Int(c, &m.Chunk)
		c.String(&m.Err)
	default:
		c.BadKind(int(m.Kind))
	}
}
