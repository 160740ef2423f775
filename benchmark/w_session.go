package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/journal"
	"pprl/internal/match"
	"pprl/internal/session"
	"pprl/internal/smc"
)

// sessionTCP: the three-party session — two RunHolder goroutines and
// RunQuery — joined by three real loopback TCP links.
type sessionTCP struct {
	rel      *relations
	journals int
}

func (w *sessionTCP) par() int       { return parallelism }
func (w *sessionTCP) digest() string { return w.rel.digest }

func (w *sessionTCP) prepare(e *env) (err error) {
	w.rel, err = genRelations(e.sz.SecureRecords, e.seed)
	return err
}

// sessionRun is one whole session observed from the querying party's
// side of the wire.
type sessionRun struct {
	res        *session.QueryResult
	dialed     time.Time
	handshake  time.Duration // dial to both holders identified
	queryStart time.Time
	queryEnd   time.Time
	wireBytes  int64 // bytes sent on all six connection ends
	bobToQuery int64 // bytes Bob sent the querying party after his view
	bobAtBegin int64
	anonA      time.Duration
	anonB      time.Duration
	spy        spyStats
	sink       sinkStats
	windows    []op      // sessionSeamEvery comparisons each, seam to seam
	windowFrom time.Time // end of the seam the open window began at
	windowed   int64     // results the closed windows hold
	calInQuery time.Duration
}

// endWindow closes one window of comparisons at the seam just taken.
// A window runs from the end of the previous seam (or the round's first
// request, if the querying party did other work in between) to the
// moment this seam found all three parties idle: the pipeline is empty
// at both ends, so the window holds all the work of its comparisons.
func (r *sessionRun) endWindow(reg *region) {
	r.windows = append(r.windows, op{start: r.windowStart(), end: reg.seamStart, n: int(r.spy.results - r.windowed)})
	r.windowed = r.spy.results
	r.windowFrom = reg.seamEnd
	r.spy.roundStart = time.Time{}
}

func (r *sessionRun) windowStart() time.Time {
	if r.spy.roundStart.After(r.windowFrom) {
		return r.spy.roundStart
	}
	return r.windowFrom
}

// listenLoopback opens a listener on an ephemeral loopback port whose
// Accept gives up after ten seconds, so a dead peer is an error instead
// of a hang.
func listenLoopback() (*net.TCPListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tl := ln.(*net.TCPListener)
	tl.SetDeadline(time.Now().Add(10 * time.Second))
	return tl, nil
}

// run plays one session. allowance 0 stops right after set-up: the
// holders connect, say hello, receive the parameters, anonymize and
// publish their views; the querying party blocks, generates its key and
// hands it out — then finds no budget and closes. jr, when non-nil,
// journals the run; reg, when non-nil, receives seams at the points
// where all three parties are idle.
func (w *sessionTCP) run(e *env, tr *tracer, allowance int, jr journal.Sink, reg *region) (*sessionRun, error) {
	run := &sessionRun{}
	lnQ, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	defer lnQ.Close()
	lnP, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	defer lnP.Close()

	var mu sync.Mutex
	var ends []smc.Conn
	track := func(c net.Conn) smc.Conn {
		sc := smc.NewNetConn(c)
		mu.Lock()
		ends = append(ends, sc)
		mu.Unlock()
		return sc
	}
	closeAll := func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range ends {
			c.Close()
		}
	}
	defer closeAll()

	root := tr.begin("session.query", 0)
	var bobQuery smc.Conn // Bob's end of his link to the querying party
	holder := func(isAlice bool) error {
		role, data := session.RoleBob, w.rel.bob
		took, span := &run.anonB, "anonymize.bob"
		if isAlice {
			role, data = session.RoleAlice, w.rel.alice
			took, span = &run.anonA, "anonymize.alice"
		}
		c, err := net.Dial("tcp", lnQ.Addr().String())
		if err != nil {
			return err
		}
		qc := track(c)
		if !isAlice {
			mu.Lock()
			bobQuery = qc
			mu.Unlock()
		}
		if err := session.Hello(qc, role); err != nil {
			return err
		}
		var p net.Conn
		if isAlice {
			p, err = lnP.Accept()
		} else {
			p, err = net.Dial("tcp", lnP.Addr().String())
		}
		if err != nil {
			return err
		}
		cfg := session.HolderConfig{Data: data, K: anonymityK}
		if tr != nil {
			cfg.Anonymizer = &anonWrap{inner: anonymize.NewMaxEntropy(), span: span, tr: tr, parent: root, took: took}
		}
		return session.RunHolder(qc, track(p), cfg, isAlice)
	}
	run.dialed = time.Now()
	errc := make(chan error, 2)
	go func() { errc <- holder(true) }()
	go func() { errc <- holder(false) }()

	var alice, bob smc.Conn
	for alice == nil || bob == nil {
		c, err := lnQ.Accept()
		if err != nil {
			return nil, fmt.Errorf("accepting holders: %w", err)
		}
		conn := track(c)
		role, err := session.Identify(conn)
		if err != nil {
			return nil, err
		}
		if role == session.RoleAlice {
			alice = conn
		} else {
			bob = conn
		}
	}
	run.handshake = time.Since(run.dialed)

	// A seam is the harness's time, not the querying party's: its span
	// keeps it out of the session's self time.
	seam := func() {
		id := tr.begin("bench.seam", root)
		reg.seam()
		tr.end(id)
	}
	qcfg := session.QueryConfig{
		Schema: w.rel.schema, QIDs: w.rel.qidNames, Theta: theta,
		Allowance: int64(allowance), KeyBits: e.sz.KeyBits,
		ShuffleAttributes: true, Packing: smc.PackingPacked,
	}
	if jr != nil {
		qcfg.Journal = &sinkWrap{inner: jr, st: &run.sink, tr: tr, parent: root,
			onBegin: func() {
				// Views are in, nothing is in flight: the last idle point
				// before the SMC step.
				mu.Lock()
				run.bobAtBegin = bobQuery.Bytes()
				mu.Unlock()
				if reg != nil {
					seam()
					run.windowFrom = reg.seamEnd
				}
			},
			onRecord: func(n int) {
				// Verdicts reach the journal in bursts, one burst per
				// CompareBatch round; the end of a burst is the seam.
				if n%sessionBatch != 0 || reg == nil {
					return
				}
				seam()
				run.endWindow(reg)
			},
		}
	}
	if jr != nil && reg != nil {
		// RunQuery's batches are 256 pairs long: too far apart for the
		// reference to follow the host. Between two result frames the
		// querying party is at a synchronous point too; every few of them
		// it lets the requests in flight finish and takes a seam. The wait
		// is inside the round and counts as the round's time.
		run.spy.onResult = func(results int64) {
			if results%sessionSeamEvery == 0 && results%sessionBatch != 0 {
				seam()
				run.endWindow(reg)
			}
		}
	}
	cal0 := reg.calSince()
	run.queryStart = time.Now()
	run.res, err = session.RunQuery(
		&spyConn{Conn: alice, st: &run.spy, tr: tr, parent: root},
		&spyConn{Conn: bob, st: &run.spy, tr: tr, parent: root}, qcfg)
	run.queryEnd = time.Now()
	run.calInQuery = reg.calSince() - cal0
	tr.end(root)
	if err != nil {
		closeAll()
		<-errc
		<-errc
		return nil, fmt.Errorf("session.RunQuery: %w", err)
	}
	if reg != nil && run.spy.results%sessionSeamEvery != 0 { // a last, partial window
		run.windows = append(run.windows, op{start: run.windowStart(), end: run.spy.lastResult, n: int(run.spy.results - run.windowed)})
	}
	for i := 0; i < 2; i++ {
		if herr := <-errc; herr != nil {
			return nil, fmt.Errorf("session.RunHolder: %w", herr)
		}
	}
	mu.Lock()
	for _, c := range ends {
		run.wireBytes += c.Bytes()
	}
	run.bobToQuery = bobQuery.Bytes() - run.bobAtBegin
	mu.Unlock()
	return run, nil
}

func (w *sessionTCP) setup(e *env) (time.Duration, error) {
	run, err := w.run(e, nil, 0, nil, nil)
	if err != nil {
		return 0, err
	}
	return run.queryEnd.Sub(run.dialed), nil
}

// journaled runs a session that records its run through a real journal
// writer in the scratch directory.
func (w *sessionTCP) journaled(e *env, tr *tracer, allowance int, reg *region) (*sessionRun, error) {
	w.journals++
	jw, err := journal.Create(filepath.Join(e.tmp, fmt.Sprintf("session-%d.wal", w.journals)), journal.Options{})
	if err != nil {
		return nil, err
	}
	run, err := w.run(e, tr, allowance, jw, reg)
	if cerr := jw.Close(); err == nil {
		err = cerr
	}
	return run, err
}

func (w *sessionTCP) pass(e *env, tr *tracer) (*outcome, error) {
	if _, err := w.journaled(e, nil, e.sz.WarmPairs, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	reg := beginRegion(e.ref, parallelism, e.sz.SessionPairs/sessionSeamEvery+3, true)
	run, err := w.journaled(e, tr, e.sz.SessionPairs, reg)
	st := reg.end()
	if err != nil {
		return nil, err
	}
	res := run.res
	o := &outcome{layer: map[string]float64{}, stats: st, rawWallS: st.Wall.Seconds(), calS: st.Cal.Seconds()}
	var busy time.Duration
	for _, w := range run.windows {
		busy += w.end.Sub(w.start)
	}
	o.pairsPerS = batchRate(st, run.windows)
	o.linkS = atBatchRate(st, run.queryEnd.Sub(run.queryStart)-run.calInQuery, run.windows, o.pairsPerS)
	o.wirePerPair = float64(run.wireBytes) / float64(res.Invocations)
	o.allocMB = float64(st.AllocBytes) / 1e6
	o.recordsPerS = float64(w.rel.alice.Len()+w.rel.bob.Len()) / o.linkS
	lat := opLatencies(st, run.windows)
	o.p50ms, o.p95ms = percentile(lat, 50), percentile(lat, 95)
	o.attempted = res.Invocations
	o.failed, o.recall, o.precision = w.verify(run)

	l := o.layer
	l["session.handshake_ms"] = run.handshake.Seconds() * 1e3
	l["session.view_exchange_bytes"] = float64(run.spy.viewBytes)
	l["session.query_busy_s"] = st.ref(tr.self("session.query"))
	l["journal.busy_s"] = run.sink.busy.Seconds()
	l["journal.syncs"] = float64(run.sink.syncs)
	l["smc.batch_calls"] = float64((res.Invocations + sessionBatch - 1) / sessionBatch)
	l["smc.batch_busy_s"] = st.ref(busy)
	l["smc.bytes_per_pair"] = o.wirePerPair
	l["smc.result_bytes_per_pair"] = float64(run.bobToQuery) / float64(res.Invocations)
	if run.spy.results > 0 {
		l["smc.dec_per_pair"] = float64(run.spy.resultCts) / float64(run.spy.results)
	}
	l["anonymize.alice_s"] = st.ref(run.anonA)
	l["anonymize.bob_s"] = st.ref(run.anonB)
	l["anonymize.classes"] = float64(res.AliceView.NumSequences() + res.BobView.NumSequences())
	l["blocking.unknown_pairs"] = float64(res.UnknownPairs)
	l["blocking.efficiency"] = res.BlockingEfficiency
	// What the overhead ratio divides: reference milliseconds per pair
	// inside the session's comparison rounds.
	l["session.ref_ms_per_pair"] = 1e3 / o.pairsPerS
	return o, nil
}

// verify checks a session's outputs against exact ground truth: every
// journaled verdict against the oracle, every reported match against
// the true pairs, and every unreported true pair against the slack
// rule over the published views (it must not have been blocked out).
func (w *sessionTCP) verify(run *sessionRun) (failed int64, recall, precision float64) {
	rel, res := w.rel, run.res
	oracle := rel.oracle()
	bought := make(map[match.Pair]bool, len(run.sink.verdicts))
	for _, v := range run.sink.verdicts {
		bought[match.Pair{I: int(v.I), J: int(v.J)}] = true
		if want, _ := oracle.Compare(int(v.I), int(v.J)); want != v.Matched {
			failed++
		}
	}
	if int64(len(run.sink.verdicts)) != res.Invocations {
		failed++
	}
	matched := make(map[match.Pair]bool, len(res.Matches))
	var tp int64
	for _, p := range res.Matches {
		matched[p] = true
		if rel.truthSet[p.Key(rel.bob.Len())] {
			tp++
		} else {
			failed++
		}
	}
	for _, p := range rel.truth {
		if matched[p] || bought[p] {
			continue
		}
		if rel.rule.Decide(res.AliceView.SequenceOf(p.I), res.BobView.SequenceOf(p.J)) == blocking.NonMatch {
			failed++
		}
	}
	recall, precision = 1, 1
	if len(rel.truth) > 0 {
		recall = float64(tp) / float64(len(rel.truth))
	}
	if len(res.Matches) > 0 {
		precision = float64(tp) / float64(len(res.Matches))
	}
	return failed, recall, precision
}

func (w *sessionTCP) probe(e *env, layer map[string]float64) error {
	if err := probePaillier(e, layer); err != nil {
		return err
	}
	if err := probeViews(e, w.rel, layer); err != nil {
		return err
	}
	if err := probeJournal(e, layer); err != nil {
		return err
	}
	inproc, err := probeInproc(e, w.rel)
	if err != nil {
		return err
	}
	layer["session.overhead_ratio"] = layer["session.ref_ms_per_pair"] * inproc / 1e3
	delete(layer, "session.ref_ms_per_pair")
	return nil
}
