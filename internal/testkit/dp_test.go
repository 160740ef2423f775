package testkit

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"pprl/internal/anonymize"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/dpblock"
	"pprl/internal/incremental"
	"pprl/internal/journal"
	"pprl/internal/oracle"
	"pprl/internal/session"
	"pprl/internal/smc"
)

// dpEpsilons is the per-holder budget rotation for the DP harness:
// small enough to exercise heavy padding, large enough to buy real
// comparisons.
var dpEpsilons = []float64{0.5, 2, 8}

// dpCfg returns the world's config switched to differentially private
// blocking. The anonymizers are cleared (the engine installs the
// deterministic binner), the strategy is pinned to maximize-precision so
// the zero-false-positive invariant applies, and ε rotates with the
// world index so every bound sees both padding-dominated and
// budget-dominated regimes.
func dpCfg(w *World, wi int) core.Config {
	cfg := w.Cfg
	cfg.AliceAnonymizer, cfg.BobAnonymizer = nil, nil
	cfg.Epsilon = dpEpsilons[wi%len(dpEpsilons)]
	cfg.DPSeed = w.Seed
	cfg.Strategy = core.MaximizePrecision
	return cfg
}

// unpaddable reports whether the world's classifier accepts every pair —
// θ ≥ 1 on all-categorical QIDs — so DP padding could not be hidden in it:
// every shape refuses such a world under DP, and the DP harnesses skip it,
// the way the tier harness sets θ ≥ 1 worlds aside.
func unpaddable(w *World) bool {
	if w.Cfg.Thresholds == nil {
		return false // the uniform θ stays below 0.30
	}
	for a, th := range w.Cfg.Thresholds {
		if th < 1 || w.Alice.Schema().Attr(a).Kind != dataset.Categorical {
			return false
		}
	}
	return true
}

// dpMissRateBound returns the accuracy bound for the aggregate DP
// missed-match rate, overridable via PPRL_DP_MAX_MISS_RATE. Bin
// intersection at a fixed depth prunes true matches whose values sit in
// different bins, so some loss is structural; the bound catches
// regressions that break the binning wholesale, not a particular
// recall.
func dpMissRateBound(t testing.TB) float64 {
	t.Helper()
	if s := os.Getenv("PPRL_DP_MAX_MISS_RATE"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 || v > 1 {
			t.Fatalf("PPRL_DP_MAX_MISS_RATE=%q is not a rate in [0,1]", s)
		}
		return v
	}
	return 0.60
}

// TestDPOracleProperties runs the generated worlds under differentially
// private blocking and checks the DP contract against the plaintext
// oracle:
//
//  1. structural soundness in every world — both releases padded (never
//     understating), no Match label from blocking, and every pruned
//     true match counted (oracle.CheckDPBlocking);
//  2. the exact layers stay exact — under maximize-precision the run
//     reports zero false positives; DP noise may lose matches but can
//     never fabricate one;
//  3. the composed budget is ε_alice + ε_bob, the purchases (dummy pairs
//     among them) never exceed the allowance, and the dummy part never
//     exceeds the padding of the candidate bins;
//  4. accuracy — the aggregate missed-match rate across worlds stays
//     under a configurable bound (PPRL_DP_MAX_MISS_RATE).
func TestDPOracleProperties(t *testing.T) {
	base := baseSeed(t)
	n := worldCount(t)
	var agg oracle.DPBlockReport
	for wi := 0; wi < n; wi++ {
		w := Generate(base + int64(wi))
		if unpaddable(w) {
			continue
		}
		cfg := dpCfg(w, wi)
		res, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
		if err != nil {
			t.Fatal(repro(w, err))
		}
		o, err := oracle.New(w.Alice, w.Bob, res.QIDs(), res.Rule())
		if err != nil {
			t.Fatal(repro(w, err))
		}
		rep, err := o.CheckDPBlocking(res.Block, -1) // structural invariants only
		if err != nil {
			t.Fatal(repro(w, err))
		}
		if _, err := o.CheckResult(res); err != nil {
			t.Fatal(repro(w, err))
		}
		if res.DP == nil {
			t.Fatal(repro(w, errors.New("DP run carries no accounting")))
		}
		if got, want := res.DP.TotalEpsilon, 2*cfg.Epsilon; got != want {
			t.Fatal(repro(w, fmt.Errorf("composed epsilon %v, want %v", got, want)))
		}
		if res.Invocations > res.Allowance || res.DP.DummySpent > res.Invocations || res.DP.DummySpent > res.DP.DummyPairs {
			t.Fatal(repro(w, fmt.Errorf("bought %d (%d of them dummy pairs, of %d) on allowance %d",
				res.Invocations, res.DP.DummySpent, res.DP.DummyPairs, res.Allowance)))
		}
		agg.TrueMatches += rep.TrueMatches
		agg.Missed += rep.Missed
		agg.CandidatePairs += rep.CandidatePairs
	}
	if agg.TrueMatches == 0 {
		t.Fatal("no world produced a true match; the miss-rate bound never fired (non-vacuous run required)")
	}
	bound := dpMissRateBound(t)
	if rate := agg.MissRate(); rate > bound {
		t.Fatalf("aggregate DP missed-match rate %.4f exceeds bound %.4f (%d of %d true matches pruned across %d worlds)",
			rate, bound, agg.Missed, agg.TrueMatches, n)
	} else {
		t.Logf("aggregate DP missed-match rate %.4f (%d of %d true matches pruned, %d candidate pairs)",
			rate, agg.Missed, agg.TrueMatches, agg.CandidatePairs)
	}
}

// TestDPCrashResumeExact crashes a journaled DP run mid-purchase and
// resumes it: the journal holds handle pairs, dummies among them, and the
// resumed run must preserve every purchased verdict bit for bit, re-spend
// nothing, bill the same dummies as the uninterrupted run, and produce the
// identical labeling.
func TestDPCrashResumeExact(t *testing.T) {
	seed := baseSeed(t)
	for wi := 0; ; wi++ {
		if wi == 12 {
			t.Fatal("no generated world produced ≥ 2 DP purchases; crash-resume never checked — adjust seeds")
		}
		w := Generate(seed + int64(wi))
		if unpaddable(w) {
			continue
		}
		cfg := dpCfg(w, wi)
		base, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
		if err != nil {
			t.Fatal(repro(w, err))
		}
		if base.Invocations < 2 {
			continue
		}
		kill := base.Invocations / 2
		path := filepath.Join(t.TempDir(), "dp-crash.wal")

		wr, err := journal.Create(path, journal.Options{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		ccfg := cfg
		ccfg.Journal = &CrashSink{W: wr, Remaining: int(kill)}
		_, err = core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, ccfg)
		if !errors.Is(err, ErrCrash) {
			t.Fatalf("crashed run returned %v, want ErrCrash", err)
		}
		if err := wr.Close(); err != nil {
			t.Fatal(err)
		}
		recovered, err := journal.Replay(path)
		if err != nil {
			t.Fatal(err)
		}

		rw, err := journal.Resume(path, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Journal = rw
		res, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, rcfg)
		if err != nil {
			t.Fatal(repro(w, err))
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}

		if res.Resume.ResumedPairs != kill || res.Resume.ReplayedAllowance != kill {
			t.Fatalf("resume stats %+v, want %d replayed", res.Resume, kill)
		}
		if got, want := res.Invocations+res.Resume.ReplayedAllowance, base.Invocations; got != want {
			t.Fatal(repro(w, fmt.Errorf("live %d + replayed %d = %d purchases, uninterrupted run bought %d",
				res.Invocations, res.Resume.ReplayedAllowance, got, want)))
		}
		if res.DP.DummySpent != base.DP.DummySpent {
			t.Fatal(repro(w, fmt.Errorf("resumed run bought %d dummy pairs, uninterrupted run %d — resume must not change the dummy bill",
				res.DP.DummySpent, base.DP.DummySpent)))
		}
		pa, pb := res.Padded()
		for _, v := range recovered.Verdicts {
			i, j := pa.Map.RecordOf[v.I], pb.Map.RecordOf[v.J]
			if i < 0 || j < 0 {
				if v.Matched {
					t.Fatal(repro(w, fmt.Errorf("handle pair (%d,%d) touches a dummy and was journaled a match", v.I, v.J)))
				}
				continue
			}
			got, ok := res.SMCLabel(i, j)
			if !ok {
				t.Fatal(repro(w, fmt.Errorf("purchased verdict (%d,%d) lost on resume", i, j)))
			}
			if got != v.Matched {
				t.Fatal(repro(w, fmt.Errorf("purchased verdict (%d,%d) flipped from %v to %v", i, j, v.Matched, got)))
			}
		}
		for i := 0; i < w.Alice.Len(); i++ {
			for j := 0; j < w.Bob.Len(); j++ {
				if res.PairMatched(i, j) != base.PairMatched(i, j) {
					t.Fatal(repro(w, fmt.Errorf("labeling diverged at (%d,%d) after resume", i, j)))
				}
			}
		}
		return
	}
}

// TestDPCrossModeResumeRefused crashes a journaled run in one blocking
// mode and tries to resume it in the other, both directions: a dp
// journal must refuse a k-anonymous resume and vice versa — silently
// changing ε (or dropping DP entirely) would invalidate the accounting
// the journal's config digest recorded.
func TestDPCrossModeResumeRefused(t *testing.T) {
	seed := baseSeed(t)
	for wi := 0; ; wi++ {
		if wi == 12 {
			t.Fatal("no generated world produced ≥ 2 purchases in both modes; cross-mode refusal never checked — adjust seeds")
		}
		w := Generate(seed + int64(wi))
		if unpaddable(w) {
			continue
		}
		dcfg := dpCfg(w, wi)
		kcfg := w.Cfg
		kcfg.Strategy = core.MaximizePrecision
		dBase, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, dcfg)
		if err != nil {
			t.Fatal(repro(w, err))
		}
		kBase, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, kcfg)
		if err != nil {
			t.Fatal(repro(w, err))
		}
		if dBase.Invocations < 2 || kBase.Invocations < 2 {
			continue
		}

		for _, dir := range []struct {
			name          string
			first, second core.Config
			firstInv      int64
		}{
			{"dp-then-k", dcfg, kcfg, dBase.Invocations},
			{"k-then-dp", kcfg, dcfg, kBase.Invocations},
		} {
			path := filepath.Join(t.TempDir(), "dp-cross.wal")
			wr, err := journal.Create(path, journal.Options{SyncEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			cfg := dir.first
			cfg.Journal = &CrashSink{W: wr, Remaining: int(dir.firstInv / 2)}
			_, err = core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
			if !errors.Is(err, ErrCrash) {
				t.Fatalf("%s: crashed run returned %v, want ErrCrash", dir.name, err)
			}
			if err := wr.Close(); err != nil {
				t.Fatal(err)
			}
			rw, err := journal.Resume(path, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg2 := dir.second
			cfg2.Journal = rw
			_, err = core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg2)
			rw.Close()
			if err == nil {
				t.Fatal(repro(w, fmt.Errorf("%s: cross-mode resume accepted; the journal digest must refuse it", dir.name)))
			}
		}
		return
	}
}

// purchaseLog is a journal that remembers what a run bought and
// tier-labeled, in walk order.
type purchaseLog struct{ pairs []journal.Verdict }

func (l *purchaseLog) Begin(journal.Manifest) ([]journal.Verdict, error) { return nil, nil }
func (l *purchaseLog) Sync() error                                       { return nil }
func (l *purchaseLog) Record(i, j int, matched bool) error {
	l.pairs = append(l.pairs, journal.Verdict{I: uint32(i), J: uint32(j), Matched: matched})
	return nil
}

// RecordTier logs a tier label as a purchase of the mirrored pair, so one
// sequence keeps both kinds in order.
func (l *purchaseLog) RecordTier(i, j int, matched bool) error {
	return l.Record(-1-i, j, matched)
}

// viewTap remembers the view a holder publishes on the querying party's
// end of its link.
type viewTap struct {
	smc.Conn
	view []byte
}

func (c *viewTap) Recv() (*smc.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Kind == smc.MsgView {
		c.view = m.View
	}
	return m, err
}

// holderPad replays a session holder's padding pass — what its release
// maps back to — from its data, role and parameters alone.
func holderPad(t *testing.T, d *dataset.Dataset, role string, cfg core.Config) *dpblock.PadMap {
	t.Helper()
	binner, err := dpblock.New(dpblock.Params{Epsilon: cfg.Epsilon, Seed: dpblock.HolderSeed(cfg.DPSeed, role)})
	if err != nil {
		t.Fatal(err)
	}
	qids, err := d.Schema().Resolve(cfg.QIDs)
	if err != nil {
		t.Fatal(err)
	}
	view, err := binner.Anonymize(d, qids, 1)
	if err == nil {
		err = dpblock.Publish(view, binner.Params())
	}
	if err != nil {
		t.Fatal(err)
	}
	pad, err := dpblock.Pad(view)
	if err != nil {
		t.Fatal(err)
	}
	return pad
}

// TestDPShapesWalkOneRelease is the one DP cost model, across shapes:
// core.Link and the in-memory three-party session, both holders at the
// world's seed, ε and level and the same absolute allowance, publish
// byte-identical padded views and buy the same handle-pair sequence, and
// with an allowance that buys every candidate, each spends exactly
// DummyPairs on pairs that touch a dummy: core.Link by its own count, the
// session counted through its holders' pad maps. At the build before this
// one core.Link walked record pairs and paid for padding in simulated
// shares, and the sequences had nothing in common. The tier is refused
// under DP (TestTierRefusedUnderDP).
func TestDPShapesWalkOneRelease(t *testing.T) {
	base := baseSeed(t)
	checked := 0
	for wi := int64(0); wi < 40 && checked < 2; wi++ {
		w := Generate(base + wi)
		if w.Cfg.Thresholds != nil {
			continue // the session takes one θ for every attribute
		}
		checked++
		name := fmt.Sprintf("world=%d", w.Seed)
		cfg := dpCfg(w, 2) // ε = 8: little padding, so the secure walk is short
		cfg.Allowance = 1 << 40
		var coreLog, sessionLog purchaseLog
		ccfg := cfg
		ccfg.Journal = &coreLog
		res, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, ccfg)
		if err != nil {
			t.Fatal(repro(w, err))
		}

		qa, aq := smc.NewConnPair()
		qb, bq := smc.NewConnPair()
		ab, ba := smc.NewConnPair()
		tapA, tapB := &viewTap{Conn: qa}, &viewTap{Conn: qb}
		errs := make(chan error, 2)
		go func() {
			errs <- session.RunHolder(aq, ab, session.HolderConfig{Data: w.Alice, Epsilon: cfg.Epsilon, DPSeed: cfg.DPSeed}, true)
		}()
		go func() {
			errs <- session.RunHolder(bq, ba, session.HolderConfig{Data: w.Bob, Epsilon: cfg.Epsilon, DPSeed: cfg.DPSeed}, false)
		}()
		qcfg := session.QueryConfig{
			Schema: w.Alice.Schema(), QIDs: cfg.QIDs, Theta: cfg.Theta, Heuristic: cfg.Heuristic,
			Allowance: cfg.Allowance, KeyBits: 256, Journal: &sessionLog,
		}
		qres, err := session.RunQuery(tapA, tapB, qcfg)
		if err != nil {
			t.Fatal(repro(w, fmt.Errorf("%s: session: %w", name, err)))
		}
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatal(repro(w, fmt.Errorf("%s: holder: %w", name, err)))
			}
		}

		pa, pb := res.Padded()
		for x, v := range []*anonymize.Result{pa.View, pb.View} {
			var buf bytes.Buffer
			if err := anonymize.WriteView(&buf, w.Alice.Schema(), v); err != nil {
				t.Fatal(err)
			}
			if wire := []*viewTap{tapA, tapB}[x].view; !bytes.Equal(buf.Bytes(), wire) {
				t.Fatal(repro(w, fmt.Errorf("%s: core.Link walks a %d-byte release for holder %d, the session's holder publishes %d bytes that differ", name, buf.Len(), x, len(wire))))
			}
		}
		if !slices.Equal(coreLog.pairs, sessionLog.pairs) {
			n := 0
			for n < min(len(coreLog.pairs), len(sessionLog.pairs)) && coreLog.pairs[n] == sessionLog.pairs[n] {
				n++
			}
			t.Fatal(repro(w, fmt.Errorf("%s: core.Link journaled %d pairs, the session %d; they part at %d", name, len(coreLog.pairs), len(sessionLog.pairs), n)))
		}
		if res.Invocations != qres.Invocations {
			t.Fatal(repro(w, fmt.Errorf("%s: core.Link bought %d, the session %d", name, res.Invocations, qres.Invocations)))
		}
		aPad, bPad := holderPad(t, w.Alice, "alice", cfg), holderPad(t, w.Bob, "bob", cfg)
		var dummies int64
		for _, v := range sessionLog.pairs {
			if aPad.RecordOf[v.I] < 0 || bPad.RecordOf[v.J] < 0 {
				dummies++
			}
		}
		if res.DP.DummySpent != res.DP.DummyPairs || dummies != res.DP.DummyPairs {
			t.Fatal(repro(w, fmt.Errorf("%s: dummy pairs bought: core.Link %d, the session %d; the release pads %d", name, res.DP.DummySpent, dummies, res.DP.DummyPairs)))
		}
	}
	if checked == 0 {
		t.Fatal("no generated world has a single θ; the shapes were never compared — adjust seeds")
	}
}

// sentTap records the kinds of message a holder sends the querying party
// (read once the holder has returned).
type sentTap struct {
	smc.Conn
	kinds []smc.MsgKind
}

func (c *sentTap) Send(m *smc.Message) error {
	c.kinds = append(c.kinds, m.Kind)
	return c.Conn.Send(m)
}

// TestTierRefusedUnderDP: the triage tier and a DP release refuse each
// other on every shape, by one sentinel, before anything is published. A
// dummy handle's CLK would tell the querying party it is padding
// (SECURITY.md, "Noised bins"). core.Link and incremental.New refuse the
// config; a session holder with ε refuses a query that asks for the tier
// before it sends its view or any encoding, and the querying party, its
// links closed as a refusing holder's process would close them, returns
// an error rather than wait.
func TestTierRefusedUnderDP(t *testing.T) {
	w := Generate(baseSeed(t))
	cfg := dpCfg(w, 2)
	cfg.Tier = core.TierBloom
	if _, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg); !errors.Is(err, dpblock.ErrTierUnderDP) {
		t.Errorf("core.Link: err = %v, want ErrTierUnderDP", err)
	}
	icfg := incremental.Config{QIDs: cfg.QIDs, Tier: core.TierBloom, Epsilon: cfg.Epsilon, DPSeed: cfg.DPSeed}
	if _, err := incremental.New(w.Alice.Schema(), icfg); !errors.Is(err, dpblock.ErrTierUnderDP) {
		t.Errorf("incremental.New: err = %v, want ErrTierUnderDP", err)
	}

	qa, aq := smc.NewConnPair()
	qb, bq := smc.NewConnPair()
	ab, ba := smc.NewConnPair()
	taps := []*sentTap{{Conn: aq}, {Conn: bq}}
	errs := make(chan error, 2)
	for x, d := range []*dataset.Dataset{w.Alice, w.Bob} {
		go func() {
			peer := []smc.Conn{ab, ba}[x]
			hc := session.HolderConfig{Data: d, Epsilon: cfg.Epsilon, DPSeed: cfg.DPSeed, TierKey: []byte("shared tier key")}
			err := session.RunHolder(taps[x], peer, hc, x == 0)
			taps[x].Close() // the holder's process exits
			errs <- err
		}()
	}
	qerr := make(chan error, 1)
	go func() {
		_, err := session.RunQuery(qa, qb, session.QueryConfig{
			Schema: w.Alice.Schema(), QIDs: cfg.QIDs, Theta: cfg.Theta,
			Allowance: 1000, KeyBits: 256, Tier: &smc.TierParams{},
		})
		qa.Close() // the querying party's process exits
		qb.Close()
		qerr <- err
	}()
	deadline := time.After(10 * time.Second)
	select {
	case err := <-qerr:
		if err == nil {
			t.Error("the querying party finished a session both holders refused")
		}
	case <-deadline:
		t.Fatal("the querying party still waits after 10 s")
	}
	for range 2 {
		select {
		case err := <-errs:
			if !errors.Is(err, dpblock.ErrTierUnderDP) {
				t.Errorf("holder: err = %v, want ErrTierUnderDP", err)
			}
		case <-deadline:
			t.Fatal("a holder still runs after 10 s")
		}
	}
	for x, tap := range taps {
		for _, k := range tap.kinds {
			if k == smc.MsgView || k == smc.MsgEncodings {
				t.Errorf("holder %d published message kind %d before refusing", x, k)
			}
		}
	}
}
