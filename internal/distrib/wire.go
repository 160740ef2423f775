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
	"encoding/gob"
	"fmt"
	"net"
	"sync"

	"pprl/internal/smc"
)

// protocolVersion is negotiated in the register/welcome handshake; a
// mismatch is a hard error because the gob message schema below is the
// wire format.
const protocolVersion = 1

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

// message is the single gob-encoded frame type both directions share.
// Unused fields stay zero; gob omits them cheaply.
type message struct {
	Kind  msgKind
	Proto int

	// Registration.
	Name  string
	Lanes int

	// Job setup.
	Job     string
	Engine  Engine
	KeyBits int
	Spec    *smc.Spec

	// Record shipping: rows [Base, Base+len(Rows)) of holder Holder
	// (0 = Alice, 1 = Bob); Total carries both relation sizes in the
	// setup message so the worker can preallocate.
	Holder int
	Base   int
	Rows   [][]int64
	Total  [2]int

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

// link wraps a net.Conn with gob framing and a send mutex, so a worker's
// heartbeat goroutine and its reply path (or the coordinator's parallel
// setup senders) can interleave safely. Receiving is single-reader on
// both ends and needs no lock.
type link struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	mu   sync.Mutex
}

func newLink(conn net.Conn) *link {
	return &link{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
}

func (l *link) send(m *message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.enc.Encode(m)
}

func (l *link) recv() (*message, error) {
	var m message
	if err := l.dec.Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

func (l *link) close() error { return l.conn.Close() }
