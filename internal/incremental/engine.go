package incremental

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"pprl/internal/blocking"
	"pprl/internal/bloom"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/dpblock"
	"pprl/internal/index"
	"pprl/internal/journal"
	"pprl/internal/metrics"
	"pprl/internal/resolve"
	"pprl/internal/smc"
	"pprl/internal/vgh"
)

// Delta is one newly discovered Match pair. I and J are record positions
// (I on side 0, J on side 1; for dedup both on side 0 with I < J);
// AliceID/BobID are the corresponding entity identifiers for consumers
// that never see positional indexes.
type Delta struct {
	Batch   int `json:"batch"`
	I       int `json:"i"`
	J       int `json:"j"`
	AliceID int `json:"alice_id"`
	BobID   int `json:"bob_id"`
}

// BatchResult summarizes one Append.
type BatchResult struct {
	// Batch is the global 0-based batch index.
	Batch int
	// Side is the holder that grew (always 0 for dedup).
	Side int
	// Records is how many records the batch appended.
	Records int
	// Deltas are the batch's newly discovered Match pairs: the delta log's
	// own slice, so read-only.
	Deltas []Delta
	// Spent is the allowance the batch consumed — the pairs it bought or
	// replayed.
	Spent int64
	// Replayed reports the batch was reconstructed wholesale from a
	// committed journal frame: verdicts applied from disk, zero allowance
	// re-spent, and — because the original commit already exposed them —
	// its deltas must not be re-emitted to consumers.
	Replayed bool
}

// Stats is the engine's lifetime accounting.
type Stats struct {
	Batches int
	// Records and Bins are per side; side 1 stays zero for dedup.
	Records [2]int
	Bins    [2]int
	// Deltas counts emitted Match pairs; BlockingMatches and
	// ResidualMatches break out the free ones (the remainder were
	// purchased). TierNonMatches counts the pairs the tier discarded.
	Deltas          int
	BlockingMatches int64
	TierNonMatches  int64
	ResidualMatches int64
	// Purchased counts live comparator invocations by this process;
	// Replayed counts verdicts applied from the journal instead.
	Purchased int64
	Replayed  int64
	// Used is the lifetime pool position, Purchased + Replayed.
	Used int64
	// Epoch advances once per applied batch; readers use it to detect
	// growth between snapshots.
	Epoch uint64
	// Stages is the lifetime wall-clock time of each batch stage, in order:
	// "ingest" (records, encodings and bins grown), "blocking" (candidate
	// groups collected and ordered), "smc" (the walk) and "commit".
	Stages metrics.Times
	// Latency is the duration of every comparator call of the walks.
	Latency metrics.Histogram
	// Replay is the share of Batches, Records (both sides), Deltas and Used
	// that batches replayed whole from committed journal frames hold.
	Replay struct{ Batches, Records, Deltas, Spent int64 }
}

// bin is one equivalence bin of a side: the shared fixed-level sequence
// and its members' record positions in append order — []int because a
// candidate group hands the kernel these slices themselves, not copies.
type bin struct {
	seq     vgh.Sequence
	members []int
}

// side is one holder's live state.
type side struct {
	data  *dataset.Dataset
	ids   []int           // per record, its EntityID
	enc   [][]int64       // per record
	clk   []*bloom.Filter // per record, with the tier on
	bins  []bin
	byKey map[string]int32
	live  *index.Live
}

// Engine owns one live dataset (dedup) or one live dataset pair. Append
// is serialized by an internal lock; Deltas/Stats may be called
// concurrently with it and see committed state only.
type Engine struct {
	mu     sync.RWMutex
	cfg    Config
	schema *dataset.Schema
	qids   []int
	rule   *blocking.Rule
	spec   *smc.Spec
	tenc   *bloom.Encoder // nil with the tier off
	sides  []*side

	nextBatch int
	frames    []journal.BatchFrame

	// deltas[b] is what batch b emitted: a capped window of a chunk of
	// the log, never written after its commit; the log is never copied to
	// grow. chunk is the log's last chunk, filled to its length. scratch is
	// where a batch collects its deltas, seq where it bins a record,
	// touched the bins its records landed in and groups its candidate
	// groups: each is reused by the next batch.
	deltas  [][]Delta
	chunk   []Delta
	scratch []Delta
	seq     vgh.Sequence
	touched []int32
	groups  []group
	stats   Stats
	stages  metrics.Stages
	failed  bool
	// oracle is the comparator kept across batches when the factory's
	// can Grow (the plaintext oracle); nil until the first purchase.
	oracle grower
	// onEvent, set by the package's tests only, sees what the kernel hands
	// the sink: the one place a row span is visible from outside. onGroups,
	// likewise, sees each batch's candidate groups before they are ordered.
	onEvent  func(resolve.Event)
	onGroups func([]group)
}

// New builds an engine over a schema. When resuming, cfg.Journal must be
// a writer opened with journal.Open and cfg.Recovered its
// Recovered() state; the engine then expects the caller to re-Append
// every stored batch in the original order — committed batches replay
// from the journal at zero live cost, the uncommitted tail batch
// re-processes with its journaled verdict prefix applied free.
func New(schema *dataset.Schema, cfg Config) (*Engine, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	qids, err := schema.Resolve(cfg.QIDs)
	if err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	var rule *blocking.Rule
	if len(cfg.Thresholds) > 0 {
		rule, err = blocking.NewRule(distance.MetricsFor(schema, qids), cfg.Thresholds)
	} else {
		rule, err = blocking.RuleFor(schema, qids, cfg.Theta)
	}
	if err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	spec, err := smc.SpecFromRule(rule, 1)
	if err != nil {
		return nil, fmt.Errorf("incremental: building SMC spec: %w", err)
	}
	spec.BoundBySchema(schema, qids)

	e := &Engine{
		cfg:    cfg,
		schema: schema,
		qids:   qids,
		rule:   rule,
		spec:   spec,
	}
	if cfg.Tier == core.TierBloom {
		e.tenc = bloom.NewDefaultEncoder()
	}
	nSides := 2
	if cfg.Dedup {
		nSides = 1
	}
	for range nSides {
		e.sides = append(e.sides, &side{
			data:  dataset.New(schema),
			byKey: make(map[string]int32),
			live:  index.NewLive(rule),
		})
	}
	if cfg.Journal != nil {
		if _, err := cfg.Journal.Begin(cfg.manifest(schema, qids)); err != nil {
			return nil, fmt.Errorf("incremental: %w", err)
		}
		if cfg.Recovered != nil {
			e.frames = cfg.Recovered.Batches
		}
	}
	return e, nil
}

// Dedup reports whether the engine links one dataset against itself.
func (e *Engine) Dedup() bool { return e.cfg.Dedup }

// PendingReplay reports how many journaled batches have not been
// re-applied yet; a resuming caller must Append exactly that many stored
// batches before accepting new traffic.
func (e *Engine) PendingReplay() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.nextBatch >= len(e.frames) {
		return 0
	}
	return len(e.frames) - e.nextBatch
}

// Stats returns a snapshot of the lifetime accounting.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := e.stats
	_, st.Stages = e.stages.Snapshot()
	return st
}

// Deltas is one snapshot of the delta log: next, how many batches have
// been applied, and the deltas of batches [from, next), one slice a batch —
// both read under one lock, so a consumer polling with from = next never
// reads a delta twice nor misses one. The slices are the log's own (never
// written after their commit; the log only grows past the view): read-only.
func (e *Engine) Deltas(from int) (next int, batches [][]Delta) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	from = min(from, len(e.deltas))
	return e.nextBatch, e.deltas[from:len(e.deltas):len(e.deltas)]
}

// group is one candidate bin pair touched by a batch, with its heuristic
// score and its new pairs: across two datasets rows × cols, aliasing the
// bins' own member lists (new members × the resident bin, or the reverse on
// a bob-side batch) so that nothing is materialized; for dedup the
// unordered pairs, listed. A bob-side batch's groups are walked column by
// column, so on either side a span is one new record against its resident
// bin.
type group struct {
	a, b       int32 // cross: side-0 bin, side-1 bin; dedup: a ≤ b
	score      float64
	rows, cols []int
	pairs      [][2]int32
}

// each walks the group's pairs in the order the kernel does: column by
// column when columns is set.
func (g *group) each(columns bool, visit func(i, j int)) {
	for _, p := range g.pairs {
		visit(int(p[0]), int(p[1]))
	}
	if columns {
		for _, j := range g.cols {
			for _, i := range g.rows {
				visit(i, j)
			}
		}
		return
	}
	for _, i := range g.rows {
		for _, j := range g.cols {
			visit(i, j)
		}
	}
}

// Append applies one batch of records to one side and returns the delta.
// Any error poisons the engine (state may be half-applied); callers
// rebuild it from the journal, exactly as the service does after a
// crash.
func (e *Engine) Append(sideIdx int, recs []dataset.Record) (*BatchResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.failed {
		return nil, fmt.Errorf("incremental: engine poisoned by an earlier error; rebuild from the journal")
	}
	res, err := e.append(sideIdx, recs)
	if err != nil {
		e.failed = true
		return nil, err
	}
	return res, nil
}

func (e *Engine) append(sideIdx int, recs []dataset.Record) (*BatchResult, error) {
	if sideIdx < 0 || sideIdx >= len(e.sides) {
		return nil, fmt.Errorf("incremental: side %d out of range (dedup=%v)", sideIdx, e.cfg.Dedup)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("incremental: empty batch")
	}
	e.stages.Begin()
	batch := e.nextBatch
	digest := BatchDigest(sideIdx, recs)

	// Match the batch against its journal frame when replaying.
	var frame *journal.BatchFrame
	if batch < len(e.frames) {
		frame = &e.frames[batch]
		if int(frame.Mark.Side) != sideIdx || int(frame.Mark.Records) != len(recs) || frame.Mark.Digest != digest {
			return nil, fmt.Errorf("incremental: batch %d does not match its journal frame (side %d/%d, records %d/%d, digest equal=%v): the stored batch changed since the crash",
				batch, sideIdx, frame.Mark.Side, len(recs), frame.Mark.Records, frame.Mark.Digest == digest)
		}
	}
	committedReplay := frame != nil && frame.Committed
	s := e.sides[sideIdx]
	if err := smc.CheckIntegral(s.data.Schema(), recs, e.qids, 1, s.data.Len()); err != nil {
		return nil, fmt.Errorf("incremental: %s: %w", [2]string{"alice", "bob"}[sideIdx], err) // refused before the batch mark is journaled
	}
	if frame == nil && e.cfg.Journal != nil {
		if err := e.cfg.Journal.RecordBatch(journal.BatchMark{
			Batch: uint32(batch), Side: uint8(sideIdx), Records: uint32(len(recs)), Digest: digest,
		}); err != nil {
			return nil, err
		}
	}

	// Grow the side: records, encodings, bins, live index.
	base := s.data.Len()
	for _, rec := range recs {
		if err := s.data.Append(rec); err != nil {
			return nil, fmt.Errorf("incremental: %w", err)
		}
		s.ids = append(s.ids, rec.EntityID)
	}
	s.enc = smc.AppendEncoded(s.enc, s.data, e.qids, 1)
	if e.tenc != nil {
		for i := base; i < s.data.Len(); i++ {
			s.clk = append(s.clk, e.tenc.Encode(bloom.FieldsOf(s.data, e.qids, i)...))
		}
	}
	touched, err := e.binNew(sideIdx, base)
	if err != nil {
		return nil, err
	}
	e.stages.Report("ingest", 1, 1)

	// Candidate generation: new pairs only, labeled by the slack rule the
	// frozen run uses.
	batchDeltas := e.scratch[:0]
	groups := e.collectGroups(sideIdx, base, touched, batch, &batchDeltas)
	if e.onGroups != nil {
		e.onGroups(groups)
	}
	// Sorted by index: a group is 88 bytes, too much to move per swap.
	order := make([]int32, len(groups))
	for k := range order {
		order[k] = int32(k)
	}
	slices.SortFunc(order, func(x, y int32) int { return e.compareGroups(&groups[x], &groups[y]) })
	e.stages.Report("blocking", 1, 1)

	spent, err := e.resolve(groups, order, sideIdx == 1, batch, frame, committedReplay, &batchDeltas)
	e.scratch = batchDeltas
	if err != nil {
		return nil, err
	}
	e.stages.Report("smc", 1, 1)

	if committedReplay && uint32(len(batchDeltas)) != frame.Commit.Deltas {
		return nil, fmt.Errorf("incremental: batch %d replayed with %d deltas, its commit record exposed %d: journal and engine state diverged",
			batch, len(batchDeltas), frame.Commit.Deltas)
	}
	if e.cfg.Journal != nil && !committedReplay {
		if err := e.cfg.Journal.RecordBatchCommit(journal.BatchCommit{
			Batch: uint32(batch), Deltas: uint32(len(batchDeltas)), Spent: spent,
		}); err != nil {
			return nil, err
		}
	}

	logged := e.log(batchDeltas)
	e.nextBatch++
	e.stats.Batches = e.nextBatch
	e.stats.Records[sideIdx] = s.data.Len()
	e.stats.Bins[sideIdx] = len(s.bins)
	e.stats.Deltas += len(batchDeltas)
	if r := &e.stats.Replay; committedReplay {
		r.Batches, r.Records, r.Deltas, r.Spent = r.Batches+1, r.Records+int64(len(recs)), r.Deltas+int64(len(batchDeltas)), r.Spent+spent
	}
	e.stats.Epoch++
	e.stages.Report("commit", 1, 1)
	return &BatchResult{
		Batch: batch, Side: sideIdx, Records: len(recs),
		Deltas: logged, Spent: spent, Replayed: committedReplay,
	}, nil
}

// deltaChunk is how many deltas a chunk of the log holds; a batch with
// more gets a chunk of its own size.
const deltaChunk = 4096

// log copies a batch's deltas into the log and returns the batch's
// window of it, capped so that no append through it reaches the next
// batch's deltas.
func (e *Engine) log(deltas []Delta) []Delta {
	n := len(deltas)
	if cap(e.chunk)-len(e.chunk) < n {
		e.chunk = make([]Delta, 0, max(deltaChunk, n))
	}
	at := len(e.chunk)
	e.chunk = append(e.chunk, deltas...)
	logged := e.chunk[at : at+n : at+n]
	e.deltas = append(e.deltas, logged)
	return logged
}

// binNew assigns every record appended at or after base to its
// fixed-level bin, inserting unseen bins into the live index. It returns
// the touched bin ids in ascending order.
func (e *Engine) binNew(sideIdx, base int) ([]int32, error) {
	s := e.sides[sideIdx]
	touched := e.touched[:0]
	var kbuf [128]byte
	for i := base; i < s.data.Len(); i++ {
		seq, err := dpblock.AppendBinRecord(e.seq[:0], s.data, e.qids, i, e.cfg.Level)
		if err != nil {
			return nil, err
		}
		e.seq = seq
		kb := appendBinKey(kbuf[:0], seq)
		bi, ok := s.byKey[string(kb)]
		if !ok {
			seq = slices.Clone(seq) // a new bin keeps its sequence
			id, err := s.live.Insert(seq)
			if err != nil {
				return nil, fmt.Errorf("incremental: %w", err)
			}
			bi = int32(id)
			if int(bi) != len(s.bins) {
				return nil, fmt.Errorf("incremental: live index id %d, want %d", bi, len(s.bins))
			}
			s.bins = append(s.bins, bin{seq: seq})
			s.byKey[string(kb)] = bi
		}
		s.bins[bi].members = append(s.bins[bi].members, i)
		touched = append(touched, bi)
	}
	slices.Sort(touched)
	e.touched = slices.Compact(touched)
	return e.touched, nil
}

// appendBinKey appends a bin's identity to kb, formatting nothing where
// Sequence.Key prints: per value, a category's length-prefixed name or an
// interval's two bounds' bits (+0 folds a -0 bound into 0, as Key prints
// it). Length prefixes and fixed widths keep neighbours from aliasing.
func appendBinKey(kb []byte, seq vgh.Sequence) []byte {
	for _, v := range seq {
		if v.Node != nil {
			kb = binary.AppendUvarint(kb, uint64(len(v.Node.Value)))
			kb = append(kb, v.Node.Value...)
		} else {
			kb = binary.LittleEndian.AppendUint64(kb, math.Float64bits(v.Iv.Lo+0))
			kb = binary.LittleEndian.AppendUint64(kb, math.Float64bits(v.Iv.Hi+0))
		}
	}
	return kb
}

// compareGroups is the order a batch resolves its groups in: ascending
// heuristic score (descending under MaximizeRecall), ties broken by the
// bin pair (a, b). No two groups of a batch share (a, b), so the order is
// total and an unstable sort finds the one a stable sort would.
func (e *Engine) compareGroups(gx, gy *group) int {
	score := cmp.Compare(gx.score, gy.score)
	if e.cfg.Strategy == core.MaximizeRecall {
		score = -score
	}
	return cmp.Or(score, cmp.Compare(gx.a, gy.a), cmp.Compare(gx.b, gy.b))
}

// collectGroups enumerates the batch's new candidate pairs (base is the
// side's first new member). Certain blocking Matches are emitted as deltas
// immediately (they cost nothing); Unknown groups are returned scored for
// the budget loop; everything else is a certain NonMatch and is dropped
// unenumerated where the live index excluded it.
func (e *Engine) collectGroups(sideIdx, base int, touched []int32, batch int, deltas *[]Delta) []group {
	groups := e.groups[:0]
	defer func() { e.groups = groups }()
	buf := make([]float64, e.rule.Len())
	s := e.sides[sideIdx]

	addGroup := func(g group, seqA, seqB vgh.Sequence) {
		label := e.rule.Decide(seqA, seqB)
		if label == blocking.NonMatch {
			return
		}
		if label == blocking.Match {
			g.each(sideIdx == 1, func(i, j int) {
				*deltas = append(*deltas, e.delta(batch, i, j))
				e.stats.BlockingMatches++
			})
			return
		}
		g.score = e.cfg.Heuristic.Score(e.rule.ExpectedDistances(seqA, seqB, buf))
		groups = append(groups, g)
	}

	if !e.cfg.Dedup {
		// Touched bins have new members and candidates residents: no empty factor.
		o := e.sides[1-sideIdx]
		for _, bi := range touched {
			b := &s.bins[bi]
			newM := b.members[sort.SearchInts(b.members, base):] // ascending positions
			o.live.Candidates(b.seq, func(ci int) {
				oc := &o.bins[ci]
				if sideIdx == 0 {
					addGroup(group{a: bi, b: int32(ci), rows: newM, cols: oc.members}, b.seq, oc.seq)
				} else {
					addGroup(group{a: int32(ci), b: bi, rows: oc.members, cols: newM}, oc.seq, b.seq)
				}
			})
		}
		return groups
	}

	// Dedup: unordered bin pairs over one side, each processed once per
	// batch; pairs are unordered member pairs with at least one new
	// endpoint, self-pairs excluded.
	seen := make(map[[2]int32]bool)
	for _, bi := range touched {
		b := &s.bins[bi]
		s.live.Candidates(b.seq, func(ci int) {
			lo, hi := bi, int32(ci)
			if lo > hi {
				lo, hi = hi, lo
			}
			k := [2]int32{lo, hi}
			if seen[k] {
				return
			}
			seen[k] = true
			lb, hb := &s.bins[lo], &s.bins[hi]
			var pairs [][2]int32
			if lo == hi {
				m := lb.members
				for x := 0; x < len(m); x++ {
					for y := x + 1; y < len(m); y++ {
						if m[x] < base && m[y] < base {
							continue
						}
						pairs = append(pairs, [2]int32{int32(m[x]), int32(m[y])})
					}
				}
			} else {
				for _, i := range lb.members {
					for _, j := range hb.members {
						if i < base && j < base {
							continue
						}
						pairs = append(pairs, [2]int32{int32(min(i, j)), int32(max(i, j))})
					}
				}
			}
			if len(pairs) > 0 {
				addGroup(group{a: lo, b: hi, pairs: pairs}, lb.seq, hb.seq)
			}
		})
	}
	return groups
}

// resolve hands the batch's uncertain groups to the resolution kernel
// (DESIGN.md §16) in order — groups[order[k]] is the k-th, walked by column
// when columns is set — and files its events into the delta log and the
// lifetime accounting. What stays here is what only a live dataset has:
// the budget is what the lifetime pool has left, the journaled purchases
// are the batch's own frame, and a committed frame replays without buying
// or journaling anything — from the frame alone: its purchases and its
// tier labels stand whatever the tier is set to now, which applies only to
// batches without a committed frame.
func (e *Engine) resolve(groups []group, order []int32, columns bool, batch int, frame *journal.BatchFrame, committed bool, deltas *[]Delta) (int64, error) {
	// Side b is side 1, or side 0 again when the dataset links itself.
	a, b := e.sides[0], e.sides[len(e.sides)-1]
	// The comparator is built or grown at the batch's first purchase: most
	// batches of a drained pool, and every committed replay, buy nothing,
	// and a secure comparator costs a key generation to build.
	cmp := &lazyComparator{build: func() (smc.Comparator, bool, error) {
		if committed {
			return nil, false, fmt.Errorf("committed batch %d needs a fresh purchase: journal and engine state diverged", batch)
		}
		return e.comparator(a.enc, b.enc)
	}}
	defer cmp.close()

	// frameTier is a committed frame's tier labels by pair. One written
	// while the tier had a Match band may hold Match labels; the commit
	// exposed their deltas, so they are emitted again, in place.
	var frameTier map[[2]uint32]bool
	used := e.stats.Used
	in := resolve.Input{
		Groups: len(groups),
		Group: func(k int) resolve.Group {
			g := &groups[order[k]]
			return resolve.Group{A: g.rows, B: g.cols, Pairs: g.pairs, Columns: columns}
		},
		Budget:     math.MaxInt64,
		Comparator: cmp,
		Latency:    &e.stats.Latency,
		Sink: func(ev resolve.Event) {
			if e.onEvent != nil {
				e.onEvent(ev)
			}
			if n := int64(len(ev.Js)); ev.Kind != resolve.Tiered {
				// A replay is free live, but the lifetime pool advances by it.
				if ev.Kind == resolve.Replayed {
					e.stats.Replayed += n
				} else {
					e.stats.Purchased += n
				}
				e.stats.Used += n
			}
			for x := range ev.Js {
				switch i, j := ev.Pair(x); {
				case ev.Kind != resolve.Tiered:
					if ev.Verdicts[x] {
						*deltas = append(*deltas, e.delta(batch, i, j))
					}
				case frameTier[[2]uint32{uint32(i), uint32(j)}]:
					*deltas = append(*deltas, e.delta(batch, i, j))
				default:
					e.stats.TierNonMatches++
				}
			}
		},
	}
	if e.cfg.Allowance > 0 {
		in.Budget = e.cfg.Allowance - e.stats.Used
	}
	if frame != nil {
		in.Journaled = frame.Verdicts
	}
	switch {
	case committed:
		frameTier = make(map[[2]uint32]bool, len(frame.TierVerdicts))
		for _, v := range frame.TierVerdicts {
			frameTier[[2]uint32{v.I, v.J}] = v.Matched
		}
		in.Tier = func(i, j int) bool {
			_, ok := frameTier[[2]uint32{uint32(i), uint32(j)}]
			return ok
		}
	case e.tenc != nil:
		in.Tier = func(i, j int) bool { return a.clk[i].Dice(b.clk[j]) <= e.cfg.TierLow }
	}
	if e.cfg.Strategy == core.MaximizeRecall {
		// Residuals default to match; under MaximizePrecision they are
		// never emitted, which is what keeps precision structural.
		in.Residual = func(ev resolve.Event) {
			for x := range ev.Js {
				i, j := ev.Pair(x)
				e.stats.ResidualMatches++
				*deltas = append(*deltas, e.delta(batch, i, j))
			}
		}
	}
	if e.cfg.Journal != nil && !committed {
		in.Journal = e.cfg.Journal // its completion Sync writes; the commit fsyncs
	}
	if _, err := resolve.Run(in); err != nil {
		return 0, fmt.Errorf("incremental: %w", err)
	}
	return e.stats.Used - used, nil
}

// grower is a comparator that follows the population as it grows
// (smc.PlainComparator): alice and bob hold the rows it was built or last
// grown over as their prefix.
type grower interface {
	smc.Comparator
	Grow(alice, bob [][]int64)
}

// comparator is the comparator for a batch's purchases over the grown
// encodings, and whether it outlives the batch. One that can Grow is built
// once, at the engine's first purchase, and grown at every later one, so a
// batch packs only its own rows; any other (the secure one) is built for
// the batch and closed with it.
func (e *Engine) comparator(alice, bob [][]int64) (smc.Comparator, bool, error) {
	if e.oracle != nil {
		e.oracle.Grow(alice, bob)
		return e.oracle, true, nil
	}
	c, err := e.cfg.Comparator(alice, bob, e.spec, 1)
	if err != nil {
		return nil, false, fmt.Errorf("building comparator: %w", err)
	}
	if g, ok := c.(grower); ok {
		e.oracle = g
		return g, true, nil
	}
	return c, false, nil
}

// lazyComparator is the kernel's comparator for one batch, built or grown
// at the first purchase.
type lazyComparator struct {
	build func() (smc.Comparator, bool, error)
	cmp   smc.Comparator
	kept  bool // cmp outlives the batch
}

func (l *lazyComparator) CompareBatch(pairs [][2]int) (_ []bool, err error) {
	if l.cmp == nil {
		if l.cmp, l.kept, err = l.build(); err != nil {
			return nil, err
		}
	}
	return l.cmp.CompareBatch(pairs)
}

func (l *lazyComparator) close() {
	if l.cmp != nil && !l.kept {
		l.cmp.Close()
	}
}

// delta materializes one emitted Match pair; for dedup both records are
// side 0's.
func (e *Engine) delta(batch, i, j int) Delta {
	return Delta{Batch: batch, I: i, J: j, AliceID: e.sides[0].ids[i], BobID: e.sides[len(e.sides)-1].ids[j]}
}
