package testkit

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pprl/internal/anonymize"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/distrib"
	"pprl/internal/dpblock"
	"pprl/internal/incremental"
	"pprl/internal/journal"
	"pprl/internal/oracle"
	"pprl/internal/session"
	"pprl/internal/smc"
)

// cell is one run of the conformance matrix: a deployment shape and one
// value of every axis.
type cell struct {
	shape   string // core, session, session-tcp, fleet, live
	secure  bool   // the 512-bit Paillier protocol, or the plaintext oracle
	mode    string // plain, tier, dp (never tier on a session, never dp on live)
	journal string // off, on, killed
	procs   int    // GOMAXPROCS for the run; 0 leaves the host's
}

func (c cell) String() string {
	cmp := map[bool]string{false: "oracle", true: "secure"}[c.secure]
	return fmt.Sprintf("%s,%s,%s,journal=%s,procs=%d", c.shape, cmp, c.mode, c.journal, c.procs)
}

var shapes = []string{"core", "session", "session-tcp", "fleet", "live"}

// pairwise covers every pair of values of two axes in nine rows: each mode
// meets each journal once, every mode and every journal meet both
// comparators and both GOMAXPROCS values, and those two meet in all four
// ways.
var pairwise = [9]cell{
	{mode: "plain", journal: "off", procs: 1},
	{mode: "plain", journal: "on", secure: true, procs: 4},
	{mode: "plain", journal: "killed", procs: 4},
	{mode: "tier", journal: "off", secure: true, procs: 4},
	{mode: "tier", journal: "on", procs: 1},
	{mode: "tier", journal: "killed", secure: true, procs: 1},
	{mode: "dp", journal: "off", procs: 4},
	{mode: "dp", journal: "on", secure: true, procs: 1},
	{mode: "dp", journal: "killed", procs: 1},
}

// row is shape s's pairwise row r. The session speaks only the secure
// protocol, so its rows all are, and has no triage tier (its CLKs would
// cross to the querying party), so its tier rows run plain; the live
// engine has no DP mode, so its dp rows run plain.
func row(s, r int) cell {
	c := pairwise[r%len(pairwise)]
	c.shape = shapes[s]
	session := strings.HasPrefix(c.shape, "session")
	c.secure = c.secure || session
	if c.shape == "live" && c.mode == "dp" || session && c.mode == "tier" {
		c.mode = "plain"
	}
	return c
}

// cells is what the n-th world runs. The crash column: core.Link on the
// world's own configuration, and on the first eight worlds a live engine
// in a mode chosen by the seed (tier on every third, plain otherwise),
// each killed at every kill point and resumed. The first nine worlds also run one pairwise row per shape,
// chosen by the seed, so that nine consecutive seeds run every row of
// every shape, and a failing cell reproduces from its seed alone.
func cells(n int, seed int64) []cell {
	out := []cell{{shape: "core", mode: "plain", journal: "killed"}}
	if n < 8 {
		out = append(out, cell{shape: "live", mode: [...]string{"plain", "tier", "plain"}[seed%3], journal: "killed"})
	}
	for s := range shapes {
		if n < len(pairwise) {
			out = append(out, row(s, int(seed%9)+4*s))
		}
	}
	return out
}

// TestConformance is the referee matrix across the four deployment shapes
// (TESTING.md, "Conformance matrix"). A cell is held to core.Link over the
// plaintext oracle, unjournaled, at the same allowance — the live engine
// to the frozen run over the fixed-level binner its equivalence contract
// names (DESIGN.md §15), at ample allowance: the same match set, nothing
// bought beyond the allowance, precision 1.0 under maximize-precision, the
// same purchases (in walk order; as a multiset on the live engine), and
// runs longer than one pair where the classes are k ≥ 8 records wide.
func TestConformance(t *testing.T) {
	ran, want := map[string]bool{}, map[string]bool{}
	for n := 0; n < worldCount(t); n++ {
		w := Generate(baseSeed(t) + int64(n))
		for _, c := range cells(n, w.Seed) {
			want[c.String()] = true
			t.Run(fmt.Sprintf("seed=%d,%v", w.Seed, c), func(t *testing.T) {
				if c.procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
				}
				if err := runCell(t, w, c); err != nil {
					t.Fatalf("world %s\ncell %v: %v\nreproduce with: PPRL_ORACLE_SEED=%d PPRL_ORACLE_WORLDS=1 go test ./internal/testkit -run 'TestConformance/%v$' -v",
						w.Describe(), c, err, w.Seed, c)
				}
				ran[c.String()] = true
			})
		}
	}
	if t.Failed() || worldCount(t) < len(pairwise) || os.Getenv("PPRL_ORACLE_SEED") != "" || strings.Contains(flag.Lookup("test.run").Value.String(), "/") {
		return // a filtered, short or reseeded run need not reach every cell
	}
	for c := range want {
		if !ran[c] { // every cell it skipped had nothing to interrupt
			t.Errorf("cell %s never ran", c)
		}
	}
}

// runK is the class width from which every shape must buy in runs.
const runK = 8

// cellConfig is the configuration a cell and its reference run: the
// world's own, in the cell's mode. The pairwise rows raise k-anonymous
// views to runK (Bob's one wider, so each holder's k is its own), so the
// run length is checked on every shape; the session runs the one strategy
// and the uniform θ it speaks. A DP cell on a world whose classifier
// cannot hide padding runs under the world's uniform θ.
func cellConfig(w *World, c cell) core.Config {
	cfg := w.Cfg
	switch c.mode {
	case "tier":
		cfg.Tier = core.TierBloom
	case "dp":
		cfg = dpCfg(w, int(w.Seed))
		if unpaddable(w) {
			cfg.Thresholds = nil
		}
	}
	if c.procs == 0 {
		return cfg
	}
	switch {
	case c.mode == "tier":
		// Odd seeds run an absurd threshold: it may cost recall, never
		// precision.
		cfg.TierLow = 0.99 * float64(w.Seed%2)
	case c.mode == "dp" && c.secure:
		cfg.Epsilon = 8 // every dummy pair is a real encryption; keep the padding light
	}
	if c.mode != "dp" {
		cfg.AliceK, cfg.BobK = max(cfg.AliceK, runK), max(cfg.BobK, runK+1)
	}
	if strings.HasPrefix(c.shape, "session") {
		cfg.Strategy, cfg.Thresholds = core.MaximizePrecision, nil
	}
	if c.mode != "dp" && c.journal == "off" {
		cfg.AllowanceFraction = 1 // these rows buy every candidate
	}
	return cfg
}

// buy is one purchase as a shape's seam shows it: the handle pair and,
// where the seam is the comparator factory, the verdict and both rows.
type buy struct {
	i, j    int
	matched bool
	a, b    []int64
}

// outcome is one run of a shape in the terms every cell checks.
type outcome struct {
	matches                          [][2]int // record pairs
	bought                           []buy
	verdicts                         bool  // bought carries verdicts and rows
	runs                             []int // pairs per run of one Alice record, as the shape's seam shows them
	compares                         int   // purchases through Compare
	invocations, replayed, allowance int64
	resumed                          int64    // pairs replayed; every one a unit of allowance
	tier                             [3]int64 // candidate pairs the tier labeled, those it left uncertain, all of them
	heuristic                        string   // the ordering the run was told to walk
	res                              *core.Result
	live                             *incremental.Stats
}

// record wraps every comparator the factory builds, filing what is bought
// through it into out.
func record(inner core.ComparatorFactory, out *outcome) core.ComparatorFactory {
	out.verdicts = true
	return func(alice, bob [][]int64, spec *smc.Spec, workers int) (smc.Comparator, error) {
		cmp, err := inner(alice, bob, spec, workers)
		if err != nil {
			return nil, err
		}
		if h, ok := cmp.(interface{ ChunkHint() int }); ok && (h.ChunkHint() <= 0 || h.ChunkHint() > 16384) {
			cmp.Close()
			return nil, fmt.Errorf("chunk hint %d outside (0, 16384]", h.ChunkHint())
		}
		rec := &recorded{cmp, alice, bob, out}
		if g, ok := cmp.(grower); ok {
			return &grownRecorded{rec, g}, nil
		}
		return rec, nil
	}
}

// grower is the live engine's comparator that follows a growing
// population (smc.PlainComparator); the recorder passes its Grow on, so
// the live cells buy through one oracle across batches, as the engine
// does by default.
type grower interface {
	Grow(alice, bob [][]int64)
}

type grownRecorded struct {
	*recorded
	g grower
}

func (c *grownRecorded) Grow(alice, bob [][]int64) {
	c.alice, c.bob = alice, bob
	c.g.Grow(alice, bob)
}

type recorded struct {
	smc.Comparator
	alice, bob [][]int64
	out        *outcome
}

func (c *recorded) Compare(i, j int) (bool, error) {
	c.out.compares++
	return c.Comparator.Compare(i, j)
}

func (c *recorded) CompareBatch(pairs [][2]int) ([]bool, error) {
	v, err := c.Comparator.CompareBatch(pairs)
	for x := 0; err == nil && x < len(pairs); x++ {
		if x == 0 || pairs[x][0] != pairs[x-1][0] {
			c.out.runs = append(c.out.runs, 0)
		}
		c.out.runs[len(c.out.runs)-1]++
		c.out.bought = append(c.out.bought, buy{pairs[x][0], pairs[x][1], v[x], c.alice[pairs[x][0]], c.bob[pairs[x][1]]})
	}
	return v, err
}

// ChunkHint passes the fleet's chunk sizing through.
func (c *recorded) ChunkHint() int {
	if h, ok := c.Comparator.(interface{ ChunkHint() int }); ok {
		return h.ChunkHint()
	}
	return 0
}

// runner runs a cell's shape once behind the given journal (nil: none);
// recovered is what a resumed live engine is handed.
type runner func(sink journal.BatchSink, recovered *journal.Recovered) (*outcome, error)

func linkOnce(w *World, cfg core.Config, cmp core.ComparatorFactory, sink journal.Sink) (*outcome, error) {
	out := &outcome{}
	cfg.Comparator, cfg.Journal = record(cmp, out), sink
	res, err := core.Link(core.Holder{Data: w.Alice}, core.Holder{Data: w.Bob}, cfg)
	if err == nil {
		out.res, out.matches = res, res.Matches()
		out.invocations, out.replayed, out.allowance, out.resumed = res.Invocations, res.Resume.ReplayedAllowance, res.Allowance, res.Resume.ResumedPairs
		out.tier, out.heuristic = [3]int64{res.TierNonMatchedPairs(), res.TierUncertainPairs, res.Block.UnknownPairs}, cfg.Heuristic.Name()
	}
	return out, err
}

// runCell builds the cell's reference and shape, runs the shape along its
// journal axis and holds it to the reference.
func runCell(t *testing.T, w *World, c cell) error {
	cfg := cellConfig(w, c)
	refCfg := cfg
	if c.shape == "live" {
		refCfg = frozenOf(t, cfg)
	}
	ref, err := linkOnce(w, refCfg, core.PlainComparatorFactory, nil)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	o, err := oracle.New(w.Alice, w.Bob, ref.res.QIDs(), ref.res.Rule())
	if err != nil {
		return err
	}
	cmp := core.PlainComparatorFactory
	if c.secure {
		cmp = core.SecureComparatorFactory(512)
	}
	if c.shape == "fleet" {
		engine := map[bool]distrib.Engine{false: distrib.EngineOracle, true: distrib.EngineSecure}[c.secure]
		pool := startFleet(t, []distrib.WorkerOptions{{Name: "w1"}, {Name: "w2"}})
		cmp = pool.Factory(distrib.JobConfig{Job: fmt.Sprint(w.Seed), Engine: engine, KeyBits: 512, ChunkPairs: 3})
	}
	run := func(sink journal.BatchSink, recovered *journal.Recovered) (*outcome, error) {
		switch c.shape {
		case "session", "session-tcp":
			return sessionOnce(w, c, cfg, ref, sink)
		case "live":
			return liveOnce(w, cfg, cmp, liveSteps(w, c), sink, recovered)
		}
		return linkOnce(w, cfg, cmp, sink)
	}

	kills, opts := []int64{0}, journal.Options{} // journal on: never killed
	switch {
	case c.journal == "off":
		got, err := run(nil, nil)
		if err != nil {
			return err
		}
		return conform(c, cfg, o, ref, got)
	case c.journal == "killed" && c.procs == 0 && ref.invocations > 1:
		// Every kill point, the middle one torn; core.Link syncs every
		// verdict alone, so the tear loses exactly one.
		kills = killPoints(ref.invocations)
		if c.shape == "core" {
			opts.SyncEvery = 1
		}
	case c.journal == "killed" && ref.invocations > 1:
		kills = []int64{1 + w.Seed%(ref.invocations-1)} // one seeded pair, torn on even seeds
	case c.journal == "killed":
		t.Skip("nothing to interrupt: the reference bought fewer than two pairs")
	}
	for x, kill := range kills {
		tearTail := kill > 0 && x == len(kills)/2 && (c.procs == 0 || w.Seed%2 == 0)
		outs, err := throughJournal(t, run, opts, kill, tearTail)
		for _, got := range outs {
			if err == nil {
				err = conform(c, cfg, o, ref, got)
			}
		}
		if err != nil {
			return fmt.Errorf("kill=%d/%d tear=%v: %w", kill, ref.invocations, tearTail, err)
		}
	}
	return nil
}

// conform is every cell's list of assertions against its reference.
func conform(c cell, cfg core.Config, o *oracle.Oracle, ref, got *outcome) error {
	pair := func(p [2]int) string { return fmt.Sprint(p) }
	if g, r := keys(got.matches, pair, true), keys(ref.matches, pair, true); !slices.Equal(g, r) {
		return fmt.Errorf("a match set of %d pairs, the reference's of %d, and they differ", len(g), len(r))
	}
	if got.invocations+got.replayed > got.allowance || got.invocations+got.replayed != ref.invocations || got.live == nil && got.allowance != ref.allowance {
		return fmt.Errorf("%d bought + %d replayed on allowance %d; the reference bought %d on %d", got.invocations, got.replayed, got.allowance, ref.invocations, ref.allowance)
	}
	if cfg.Strategy == core.MaximizePrecision {
		conf, err := o.CheckMatches(got.matches)
		if err != nil {
			return err
		}
		if c.mode == "plain" && ref.invocations == ref.res.Block.UnknownPairs && conf.FalseNegatives != 0 {
			return fmt.Errorf("every candidate bought, and %d true matches missed", conf.FalseNegatives)
		}
	}
	if got.res != nil {
		if _, err := o.CheckResult(got.res); err != nil {
			return err
		}
	}
	// The purchases: handle pairs and verdicts, in walk order; the pairs
	// alone on the session's wire, which carries no verdict; for the live
	// engine, whose handles and batches are its own, the rows and verdicts
	// as a multiset.
	key := func(p buy) string { return fmt.Sprint(p.i, p.j, p.matched) }
	switch {
	case !got.verdicts:
		key = func(p buy) string { return fmt.Sprint(p.i, p.j) }
	case c.shape == "live":
		key = func(p buy) string { return fmt.Sprint(p.a, p.b, p.matched) }
	}
	if g, r := keys(got.bought, key, c.shape == "live"), keys(ref.bought, key, c.shape == "live"); !slices.Equal(g, r) {
		return fmt.Errorf("%d pairs bought, the reference's %d, and the purchases differ", len(g), len(r))
	}
	gotTier, wantTier := got.tier, ref.tier
	if c.mode == "tier" { // a replayed purchase is no longer the tier's to leave uncertain
		gotTier[1] += got.resumed
	}
	if c.mode == "dp" && got.res == nil { // the session's candidates are handle pairs: padding too
		wantTier[2] += ref.res.DP.DummyPairs
	}
	switch {
	case got.res != nil && got.res.DP != nil && got.res.DP.DummySpent != ref.res.DP.DummySpent:
		return fmt.Errorf("%d dummy pairs bought, the reference %d", got.res.DP.DummySpent, ref.res.DP.DummySpent)
	case got.live != nil && got.live.Used != got.live.Purchased+got.live.Replayed:
		return fmt.Errorf("live pool at %d: %d bought + %d replayed", got.live.Used, got.live.Purchased, got.live.Replayed)
	case got.live == nil && gotTier != wantTier:
		return fmt.Errorf("tier-labeled, uncertain and candidate pairs %v, want %v", gotTier, wantTier)
	case c.mode == "tier" && got.live == nil && (gotTier[0]+gotTier[1] != gotTier[2] || got.invocations+got.replayed != min(got.allowance, gotTier[1])):
		return fmt.Errorf("tier-labeled, uncertain and candidate pairs %v; %d bought on allowance %d", gotTier, got.invocations+got.replayed, got.allowance)
	case got.res != nil && got.res.SMCResolvedPairs() != ref.res.SMCResolvedPairs():
		return fmt.Errorf("%d purchased verdicts filed, the reference %d", got.res.SMCResolvedPairs(), ref.res.SMCResolvedPairs())
	case got.resumed != got.replayed:
		return fmt.Errorf("resumed %d pairs worth %d units of allowance", got.resumed, got.replayed)
	case got.compares > 0:
		return fmt.Errorf("%d purchases through Compare, not CompareBatch", got.compares)
	}
	if c.mode == "plain" && min(cfg.AliceK, cfg.BobK) >= runK {
		pairs := 0
		for _, n := range got.runs {
			pairs += n
		}
		if pairs >= 2*runK && pairs <= len(got.runs) {
			return fmt.Errorf("%d pairs bought in %d runs: one pair at a time", pairs, len(got.runs))
		}
	}
	return nil
}

// keys lists xs by key, in order, or sorted: a multiset.
func keys[T any](xs []T, key func(T) string, sorted bool) []string {
	out := make([]string, len(xs))
	for x, v := range xs {
		out[x] = key(v)
	}
	if sorted {
		slices.Sort(out)
	}
	return out
}

// throughJournal runs the shape behind a fresh journal, which must then
// hold exactly what was bought, in order, and resumes from it. With kill >
// 0 the first life dies once kill verdicts are journaled, its last frame
// torn if asked; otherwise it completes, is returned, and the second life
// must buy nothing. The second life is returned stitched to the first:
// the journaled prefix of the first life's purchases and its own, and for
// the live engine the deltas exposed in both lives.
func throughJournal(t *testing.T, run runner, opts journal.Options, kill int64, tearTail bool) ([]*outcome, error) {
	path := filepath.Join(t.TempDir(), "cell.wal")
	wr, err := journal.Create(path, opts)
	if err != nil {
		return nil, err
	}
	var sink journal.BatchSink = wr
	if kill > 0 {
		sink = &CrashSink{W: wr, Remaining: int(kill)}
	}
	first, err := run(sink, nil)
	if kill > 0 && errors.Is(err, ErrCrash) {
		err = nil
	} else if kill > 0 && err == nil {
		err = errors.New("the run outlived its kill point")
	}
	if cerr := wr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if tearTail { // cut inside the final frame, as a crash mid-write would
		if info, err := os.Stat(path); err != nil || os.Truncate(path, info.Size()-2) != nil {
			return nil, fmt.Errorf("tearing the journal: %v", err)
		}
	}
	rec, err := journal.Replay(path)
	if err != nil {
		return nil, err
	}
	// The journal holds what was bought, up to the kill; a torn tail loses
	// its last frame — one verdict where every verdict is synced alone.
	n, want := len(rec.Verdicts), len(first.bought)
	if kill > 0 {
		want = int(kill)
	}
	lost := !tearTail && n != want || tearTail && (rec.TornBytes == 0 || n >= want || opts.SyncEvery == 1 && n != want-1)
	if lost || len(first.bought) < n {
		return nil, fmt.Errorf("journal holds %d verdicts of %d bought (%d torn bytes); the kill came at %d", n, len(first.bought), rec.TornBytes, want)
	}
	for x, v := range rec.Verdicts {
		if p := first.bought[x]; int(v.I) != p.i || int(v.J) != p.j || first.verdicts && v.Matched != p.matched {
			return nil, fmt.Errorf("journal verdict %d is (%d,%d)=%v, purchase %d was (%d,%d)=%v", x, v.I, v.J, v.Matched, x, p.i, p.j, p.matched)
		}
	}
	var outs []*outcome
	if kill == 0 {
		if m := rec.Manifest; first.replayed != 0 || first.live == nil && (m.Allowance != first.allowance || m.Heuristic != first.heuristic) {
			return nil, fmt.Errorf("a fresh journal replayed %d; manifest allowance %d and %s, the run's %d and %s", first.replayed, m.Allowance, m.Heuristic, first.allowance, first.heuristic)
		}
		outs = append(outs, first)
	}
	rw, err := journal.Resume(path, journal.Options{})
	if err != nil {
		return nil, err
	}
	got, err := run(rw, rw.Recovered())
	if cerr := rw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("resumed run: %w", err)
	}
	if got.replayed != int64(n) {
		return nil, fmt.Errorf("resume replayed %d of %d journaled verdicts", got.replayed, n)
	}
	if got.live != nil {
		got.matches = append(first.matches, got.matches...)
	}
	got.bought = append(first.bought[:n:n], got.bought...)
	return append(outs, got), nil
}

// killPoints picks the crash boundaries for a run of total purchases: a
// quarter in, halfway, and on the final pair.
func killPoints(total int64) []int64 {
	var out []int64
	for _, p := range []int64{total / 4, total / 2, total - 1} {
		if p >= 1 && !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// sessionOnce runs the three-party session over in-memory or loopback TCP
// links. Its purchases are read off the holders' query links: Alice is
// told each run's record, Bob the run's records (a run longer than the
// protocol's cut, half its pipelining window, arrives in several).
func sessionOnce(w *World, c cell, cfg core.Config, ref *outcome, sink journal.Sink) (*outcome, error) {
	links, err := sessionLinks(c.shape == "session-tcp")
	for _, l := range links {
		if l != nil {
			defer l.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	qcfg := session.QueryConfig{
		Schema: w.Alice.Schema(), QIDs: cfg.QIDs, Theta: cfg.Theta, Heuristic: cfg.Heuristic,
		AllowanceFraction: cfg.AllowanceFraction, KeyBits: 512, Journal: sink,
	}
	taps := [2]*requestTap{{Conn: links[2]}, {Conn: links[3]}}
	errs := make(chan error, 2)
	for x, d := range []*dataset.Dataset{w.Alice, w.Bob} {
		hc := session.HolderConfig{Data: d, Epsilon: cfg.Epsilon, DPSeed: cfg.DPSeed}
		if cfg.Epsilon == 0 {
			hc.K, hc.Anonymizer = cfg.AliceK, cfg.AliceAnonymizer
			if x == 1 {
				hc.K, hc.Anonymizer = cfg.BobK, cfg.BobAnonymizer
			}
		}
		go func() { errs <- session.RunHolder(taps[x], links[4+x], hc, x == 0) }()
	}
	res, err := session.RunQuery(links[0], links[1], qcfg)
	if err != nil {
		links[0].Close() // the querying party exits, and its links with it
		links[1].Close()
	}
	for range 2 {
		if herr := <-errs; err == nil && herr != nil {
			err = fmt.Errorf("holder: %w", herr)
		}
	}
	out := &outcome{}
	for k := 0; k < min(len(taps[0].reqs), len(taps[1].reqs)); k++ {
		for _, j := range taps[1].reqs[k] {
			out.bought = append(out.bought, buy{i: taps[0].reqs[k][0], j: j})
		}
		out.runs = append(out.runs, len(taps[1].reqs[k]))
	}
	if err != nil {
		return out, err
	}
	out.invocations, out.replayed, out.allowance, out.resumed = res.Invocations, res.Resume.ReplayedAllowance, res.Allowance, res.Resume.ResumedPairs
	out.tier, out.heuristic = [3]int64{0, 0, res.UnknownPairs}, cfg.Heuristic.Name()
	if err := checkViews(w, cfg, res, ref.res); err != nil {
		return out, err
	}
	pa, pb := ref.res.Padded() // the session's release is core.Link's, handle for handle
	for _, m := range res.Matches {
		if cfg.Epsilon > 0 {
			m.I, m.J = pa.Map.RecordOf[m.I], pb.Map.RecordOf[m.J]
		}
		out.matches = append(out.matches, [2]int{m.I, m.J})
	}
	return out, nil
}

// checkViews holds the views the querying party received to what the
// holders were asked to publish: k-anonymous views at their k over the
// whole pair space, or DP releases that serialize byte for byte as
// core.Link's padded releases — each bin listing its noised count of
// handles — and carry no noise seed.
func checkViews(w *World, cfg core.Config, res *session.QueryResult, ref *core.Result) error {
	if cfg.Epsilon == 0 {
		if res.AliceView.K != cfg.AliceK || res.BobView.K != cfg.BobK || res.TotalPairs != int64(w.Alice.Len()*w.Bob.Len()) {
			return fmt.Errorf("views of k = %d, %d over %d pairs", res.AliceView.K, res.BobView.K, res.TotalPairs)
		}
		return nil
	}
	pa, pb := ref.Padded()
	for x, v := range []*anonymize.Result{res.AliceView, res.BobView} {
		var got, want bytes.Buffer
		err := errors.Join(anonymize.WriteView(&got, w.Alice.Schema(), v), anonymize.WriteView(&want, w.Alice.Schema(), []dpblock.Padded{pa, pb}[x].View))
		if err != nil || v.DP == nil || v.DP.Seed != 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
			return fmt.Errorf("view %d (release %+v) is not core.Link's padded release with its seed withheld: %v", x, v.DP, err)
		}
	}
	return nil
}

// sessionLinks connects the three parties: the querying party's links to
// Alice and Bob, the holders' ends of them, and Alice's and Bob's ends of
// their peer link. Over TCP each holder says who it is first.
func sessionLinks(tcp bool) (links [6]smc.Conn, err error) {
	for x := 0; x < 3 && err == nil; x++ { // Q–Alice, Q–Bob, Alice–Bob
		if tcp {
			links[x], links[x+3], err = tcpPair()
		} else {
			links[x], links[x+3] = smc.NewConnPair()
		}
	}
	for x, role := range []string{session.RoleAlice, session.RoleBob} {
		if tcp && err == nil {
			var got string
			if err = session.Hello(links[x+3], role); err == nil {
				got, err = session.Identify(links[x])
			}
			if err == nil && got != role {
				err = fmt.Errorf("%s identified as %s", role, got)
			}
		}
	}
	links[2], links[3], links[4] = links[3], links[4], links[2]
	return links, err
}

// tcpPair is the two ends of a loopback TCP connection.
func tcpPair() (smc.Conn, smc.Conn, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	a := <-accepted
	if a == nil {
		c.Close()
		return nil, nil, errors.New("loopback accept failed")
	}
	return smc.NewNetConn(a), smc.NewNetConn(c), nil
}

// requestTap remembers, for each MsgCompare a holder receives, the records
// it names: Alice's one, or Bob's run.
type requestTap struct {
	smc.Conn
	reqs [][]int
}

func (c *requestTap) Recv() (*smc.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Kind == smc.MsgCompare {
		req := []int{m.Record}
		if len(m.Records) > 0 {
			req = slices.Clone(m.Records)
		}
		c.reqs = append(c.reqs, req)
	}
	return m, err
}

// frozenOf is the frozen run the live engine is held to: the same rule and
// mode over the fixed-level binner, at ample allowance.
func frozenOf(t *testing.T, cfg core.Config) core.Config {
	f := core.DefaultConfig(cfg.QIDs)
	f.Theta, f.Thresholds, f.Heuristic, f.Tier, f.TierLow = cfg.Theta, cfg.Thresholds, cfg.Heuristic, cfg.Tier, cfg.TierLow
	f.Allowance = incrementalAmple
	lb, err := dpblock.NewLevelBinner(0)
	if err != nil {
		t.Fatal(err)
	}
	f.AliceAnonymizer, f.BobAnonymizer, f.AliceK, f.BobK = lb, lb, 1, 1
	return f
}

// liveSteps is the live engine's append schedule: five batches that
// alternate sides — thirds of Alice's relation, halves of Bob's — or, in
// the crash column, Bob's halves and then Alice's thirds, so that one side
// also grows twice in a row.
func liveSteps(w *World, c cell) []incStep {
	if c.procs == 0 {
		return incrementalSteps(w)
	}
	var steps []incStep
	bs := splitRecords(w.Bob.Records(), w.Bob.Len()/2+1)
	for x, a := range splitRecords(w.Alice.Records(), w.Alice.Len()/3+1) {
		if steps = append(steps, incStep{0, a}); x < len(bs) {
			steps = append(steps, incStep{1, bs[x]})
		}
	}
	return steps
}

// liveOnce feeds the world to a live engine. Its purchases are read
// through its comparator factory, which each batch that buys calls.
func liveOnce(w *World, cfg core.Config, cmp core.ComparatorFactory, steps []incStep, sink journal.BatchSink, recovered *journal.Recovered) (*outcome, error) {
	out := &outcome{allowance: incrementalAmple}
	eng, err := incremental.New(w.Alice.Schema(), incremental.Config{
		QIDs: cfg.QIDs, Theta: cfg.Theta, Thresholds: cfg.Thresholds, Heuristic: cfg.Heuristic,
		Allowance: incrementalAmple, Tier: cfg.Tier, TierLow: cfg.TierLow,
		Comparator: record(cmp, out), Journal: sink, Recovered: recovered,
	})
	if err != nil {
		return out, err
	}
	for _, step := range steps {
		res, err := eng.Append(step.side, step.recs)
		if err != nil {
			return out, err
		}
		for _, d := range res.Deltas {
			if !res.Replayed { // a replayed batch's deltas were exposed before the crash
				out.matches = append(out.matches, [2]int{d.I, d.J})
			}
		}
	}
	st := eng.Stats()
	if st.Batches != len(steps) || st.Epoch == 0 {
		return out, fmt.Errorf("%d batches applied of %d, epoch %d", st.Batches, len(steps), st.Epoch)
	}
	out.invocations, out.replayed, out.resumed, out.live = st.Purchased, st.Replayed, st.Replayed, &st
	return out, nil
}
