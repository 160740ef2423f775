package main

import (
	"fmt"
	"time"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/core"
)

// outcome is what one pass of one workload measured.
type outcome struct {
	linkS       float64 // reference seconds (raw on live-ingest)
	pairsPerS   float64
	wirePerPair float64
	allocMB     float64
	recall      float64
	precision   float64
	recordsPerS float64
	p50ms       float64
	p95ms       float64

	attempted int64
	failed    int64
	rawWallS  float64 // timed regions, calibration included
	calS      float64 // of which calibration
	stats     regionStats

	// layer holds the per-layer values this pass observed at its seams;
	// probes add theirs. Names missing here are reported as 0: the
	// workload does not exercise that layer.
	layer map[string]float64
}

// stageClock turns core.Config.Progress events into stage boundaries
// and, on plain-fullscale, into the region's seams and the per-stride
// latencies: the resolve loop reports every 4096 purchases, a
// synchronous point on the linking goroutine.
type stageClock struct {
	reg       *region
	seamEvery int // take a seam every this many smc events; 0 = never

	at  map[string]time.Time
	cal map[string]time.Duration

	smcEvents int
	lastSMC   time.Time
	lastDone  int64
	strides   []op
}

func newStageClock(reg *region, seamEvery int) *stageClock {
	return &stageClock{reg: reg, seamEvery: seamEvery, at: map[string]time.Time{}, cal: map[string]time.Duration{}}
}

const smcStride = 4096 // core's progress stride; strides of another size are partial

func (c *stageClock) progress(stage string, done, total int64) {
	now := time.Now()
	if stage != "smc" {
		if _, seen := c.at[stage]; !seen {
			c.at[stage], c.cal[stage] = now, c.reg.calSince()
		}
		return
	}
	if c.smcEvents == 0 {
		c.at["smc-first"], c.cal["smc-first"] = now, c.reg.calSince()
	} else if done-c.lastDone == smcStride {
		c.strides = append(c.strides, op{start: c.lastSMC, end: now})
	}
	c.at["smc-last"], c.cal["smc-last"] = now, c.reg.calSince()
	c.smcEvents++
	if c.seamEvery > 0 && c.smcEvents%c.seamEvery == 0 {
		c.reg.seam()
	}
	c.lastSMC, c.lastDone = time.Now(), done
}

// mark records a boundary the harness itself observes (the Link call
// and its return).
func (c *stageClock) mark(name string) {
	c.at[name], c.cal[name] = time.Now(), c.reg.calSince()
}

// between is the workload time from event a to event b: wall minus the
// calibration that ran in between.
func (c *stageClock) between(a, b string) time.Duration {
	return c.at[b].Sub(c.at[a]) - (c.cal[b] - c.cal[a])
}

// baseConfig is the common linkage configuration: 5 default QIDs,
// θ = 0.05, k = 32, minAvgFirst, maximize-precision, tier off, DP off,
// packed responses (all of which are core.DefaultConfig's defaults).
func baseConfig(rel *relations) core.Config {
	cfg := core.DefaultConfig(rel.qidNames)
	cfg.Theta = theta
	cfg.AliceK, cfg.BobK = anonymityK, anonymityK
	cfg.SMCWorkers = parallelism
	return cfg
}

// linkRun is one core.Link call observed from outside.
type linkRun struct {
	res   *core.Result
	stats regionStats
	clock *stageClock
	cmp   cmpStats
	anonA time.Duration
	anonB time.Duration
}

// linkOpts says how a link is observed. factory, when non-nil, is the
// secure engine under test, installed behind the wrapping comparator,
// and seams then wait for its background work to settle (pids lists
// worker processes to wait for too); seams is the expected seam count
// (0 runs uncalibrated, for warm-ups); seamEvery is forwarded to the
// stage clock; hint > 0 is the ChunkHint the wrapper declares.
type linkOpts struct {
	par, seams, seamEvery int
	target                int // reference samples to reach; 0 = the kernel's target
	factory               core.ComparatorFactory
	hint                  int
	pids                  []int
}

// timedLink runs core.Link inside a region. Spans are recorded when tr
// is non-nil.
func timedLink(e *env, rel *relations, cfg core.Config, tr *tracer, lo linkOpts) (*linkRun, error) {
	run := &linkRun{}
	var reg *region // nil on a warm-up: nothing is reported, so nothing is calibrated
	if lo.seams > 0 {
		target := lo.target
		if target == 0 {
			target = e.ref.target
		}
		reg = beginRegionN(e.ref, lo.par, lo.seams, target, lo.factory != nil, lo.pids...)
	}
	run.clock = newStageClock(reg, lo.seamEvery)
	cfg.Progress = run.clock.progress
	root := tr.begin("core.link", 0)
	if lo.factory != nil {
		cfg.Comparator = wrapFactory(lo.factory, lo.hint, &run.cmp, reg, tr, root, e.canary == "flip")
	}
	if tr != nil {
		cfg.AliceAnonymizer = &anonWrap{inner: anonymize.NewMaxEntropy(), span: "anonymize.alice", tr: tr, parent: root, took: &run.anonA}
		cfg.BobAnonymizer = &anonWrap{inner: anonymize.NewMaxEntropy(), span: "anonymize.bob", tr: tr, parent: root, took: &run.anonB}
	}
	run.clock.mark("start")
	res, err := core.Link(core.Holder{Data: rel.alice}, core.Holder{Data: rel.bob}, cfg)
	run.clock.mark("end")
	tr.end(root)
	if reg != nil {
		run.stats = reg.end()
	}
	if err != nil {
		return nil, fmt.Errorf("core.Link: %w", err)
	}
	run.res = res
	if tr != nil {
		c := run.clock
		tr.add("core.stage.anonymize", root, c.at["start"], c.at["anonymize-bob"])
		tr.add("core.stage.blocking", root, c.at["anonymize-bob"], c.at["blocking"])
		tr.add("core.stage.resolve", root, c.at["blocking"], c.at["smc-last"])
	}
	return run, nil
}

// linkWall is the workload time of the Link call: return minus call,
// minus the calibration that ran inside it.
func (r *linkRun) linkWall() time.Duration { return r.clock.between("start", "end") }

// verifyLink counts the ways a core.Result contradicts exact ground
// truth. False positives catch every wrong Match (blocked or
// purchased); walking the true pairs catches every wrong NonMatch: a
// true pair whose purchased verdict is false, or whose class pair
// blocking labeled NonMatch. Together they cover both error directions
// without trusting the program's own labels.
func verifyLink(rel *relations, res *core.Result) (failed int64, recall, precision float64) {
	conf := res.Evaluate(rel.truth)
	failed = conf.FalsePositives
	for _, p := range rel.truth {
		if v, bought := res.SMCLabel(p.I, p.J); bought {
			if !v {
				failed++
			}
		} else if res.Block.Label(res.Block.R.ClassOf[p.I], res.Block.S.ClassOf[p.J]) == blocking.NonMatch {
			failed++
		}
	}
	return failed, conf.Recall(), conf.Precision()
}

// countWriter counts what is written through it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// viewBytes is the serialized size of both anonymized views: what the
// holders put on the wire before any comparison.
func viewBytes(rel *relations, r, s *anonymize.Result) (int64, error) {
	var cw countWriter
	if err := anonymize.WriteView(&cw, rel.schema, r); err != nil {
		return 0, err
	}
	if err := anonymize.WriteView(&cw, rel.schema, s); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// opLatencies normalises each operation by the seams around it and
// returns the values in reference milliseconds.
func opLatencies(st regionStats, ops []op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = st.refLocal(o) * 1e3
	}
	return out
}

// batchRate is the comparison rate of a closed loop of batches, in pairs
// per reference second: each batch is normalised by the seams around it,
// and the median over the batches is the rate. A host hiccup lands in one
// or two batches, or in one seam's reading, and moves a mean over the
// region by its full size; it does not move the median.
func batchRate(st regionStats, batches []op) float64 {
	rates := make([]float64, len(batches))
	for i, b := range batches {
		rates[i] = float64(b.n) / st.refLocal(b)
	}
	return median(rates)
}

// atBatchRate is the reference seconds of a stretch of wall time that
// held the given batches: the comparisons are charged at the region's
// batch rate, what lies between and around the batches at the region's
// mean reference cost.
func atBatchRate(st regionStats, wall time.Duration, batches []op, rate float64) float64 {
	var pairs int
	for _, b := range batches {
		wall -= b.end.Sub(b.start) - b.cal + b.after
		pairs += b.n
	}
	return st.ref(wall) + float64(pairs)/rate
}

// secureLinkOutcome fills the metrics the two core.Link secure
// workloads share. wireBytes is the protocol traffic of the timed link.
func secureLinkOutcome(rel *relations, run *linkRun, wireBytes int64) *outcome {
	st := run.stats
	o := &outcome{layer: map[string]float64{}}
	o.pairsPerS = batchRate(st, run.cmp.ops)
	o.linkS = atBatchRate(st, run.linkWall(), run.cmp.ops, o.pairsPerS)
	o.wirePerPair = float64(wireBytes) / float64(run.cmp.purchased)
	o.allocMB = float64(st.AllocBytes) / 1e6
	o.recordsPerS = float64(rel.alice.Len()+rel.bob.Len()) / o.linkS
	lat := opLatencies(st, run.cmp.ops)
	o.p50ms, o.p95ms = percentile(lat, 50), percentile(lat, 95)
	var wrong int64
	wrong, o.recall, o.precision = verifyLink(rel, run.res)
	o.attempted = run.cmp.purchased
	o.failed = run.cmp.mismatches + wrong
	if run.res.Invocations != run.cmp.purchased {
		o.failed++ // the engine's cost accounting disagrees with what crossed the seam
	}
	o.rawWallS, o.calS = st.Wall.Seconds(), st.Cal.Seconds()
	o.stats = st

	l := o.layer
	l["smc.construct_ms"] = st.ref(run.cmp.construct) * 1e3
	l["smc.batch_calls"] = float64(len(run.cmp.ops))
	l["smc.batch_busy_s"] = st.ref(run.cmp.busy)
	l["smc.bytes_per_pair"] = float64(run.cmp.bytes) / float64(run.cmp.purchased)
	l["smc.result_bytes_per_pair"] = float64(run.cmp.resultBytes) / float64(run.cmp.purchased)
	l["smc.dec_per_pair"] = float64(run.cmp.decs) / float64(run.cmp.purchased)
	coreLayer(l, run, run.cmp.purchased)
	return o
}

// coreLayer fills the layer values every core.Link pass can read off
// its Progress timestamps, memory statistics and result.
func coreLayer(l map[string]float64, run *linkRun, purchased int64) {
	st, c := run.stats, run.clock
	anon := c.between("start", "anonymize-bob")
	block := c.between("anonymize-bob", "blocking")
	resolve := c.between("blocking", "smc-last")
	l["core.stage_anonymize_s"] = st.ref(anon)
	l["core.stage_blocking_s"] = st.ref(block)
	l["core.stage_resolve_s"] = st.ref(resolve)
	l["core.stage_sum_ratio"] = float64(anon+block+resolve) / float64(run.linkWall())
	l["core.resolve_pairs_per_s"] = float64(purchased) / st.ref(resolve)
	l["core.allocs_per_pair"] = float64(st.Mallocs) / float64(purchased)
	l["core.alloc_bytes_per_pair"] = float64(st.AllocBytes) / float64(purchased)
	l["anonymize.alice_s"] = st.ref(run.anonA)
	l["anonymize.bob_s"] = st.ref(run.anonB)
	l["anonymize.classes"] = float64(run.res.Block.R.NumSequences() + run.res.Block.S.NumSequences())
	l["blocking.unknown_pairs"] = float64(run.res.Block.UnknownPairs)
	l["blocking.efficiency"] = run.res.BlockingEfficiency()
}
