package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// series is one metric's values over the runs a report holds.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// wlReport is everything measured on one workload.
type wlReport struct {
	Attempted []int64 `json:"attempted"`
	Failed    []int64 `json:"failed"`
	// Recall is exact for a given input digest (every stage that decides
	// it is deterministic), so -compare holds it to "not lower" when the
	// header's digests match. It is not in BENCHMARK.json: across seeds it is no
	// steadier than the handful of matches an 800-pair budget buys.
	Recall   []float64          `json:"recall"`
	EndToEnd map[string]*series `json:"end_to_end"`
	PerLayer map[string]*series `json:"per_layer,omitempty"`
}

// report is the result file -out writes and -compare reads.
type report struct {
	Header    header               `json:"header"`
	Workloads map[string]*wlReport `json:"workloads"`
}

// result is one run of one workload.
type result struct {
	workload  string
	digest    string
	attempted int64
	failed    int64
	recall    float64
	endToEnd  map[string]float64
	perLayer  map[string]float64 // nil unless traced
	// bench holds the harness's own readings of the untraced pass; they
	// are printed on every run and join perLayer on a traced one.
	bench map[string]float64
}

// runWorkload performs one run of one workload: preparation, the
// set-ups, the untraced pass and — when traced — the traced pass and
// the layer probes.
func runWorkload(e *env, name string, traced bool) (*result, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("%s: preparing: %w", name, err)
	}
	prep := time.Since(t0)

	// Set-ups, each bracketed by reference samples. Keygen is a random
	// prime search, so one set-up says little; the median of several does.
	const setupsPerSeam = 4
	seams := e.sz.Setups/setupsPerSeam + 2
	reg := beginRegionN(e.ref, w.par(), seams, 2*seams, true)
	var took []time.Duration
	for i := 0; i < e.sz.Setups; i++ {
		d, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", name, i+1, err)
		}
		took = append(took, d)
		if i%setupsPerSeam == setupsPerSeam-1 {
			reg.seam()
		}
	}
	sst := reg.end()
	setups := make([]float64, len(took))
	_, own := w.(interface{ selfNormalisedSetup() })
	for i, d := range took {
		if own {
			setups[i] = d.Seconds()
		} else {
			setups[i] = sst.ref(d)
		}
	}

	o, err := w.pass(e, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res := &result{workload: name, digest: w.digest(), attempted: o.attempted, failed: o.failed, recall: o.recall}
	res.endToEnd = map[string]float64{
		"setup_s":             median(setups),
		"link_s":              o.linkS,
		"pairs_per_s":         o.pairsPerS,
		"wire_bytes_per_pair": o.wirePerPair,
		"alloc_mb":            o.allocMB,
		"peak_rss_mb":         rss + o.layer["distrib.worker_rss_mb"],
		"precision":           o.precision,
		"records_per_s":       o.recordsPerS,
		"append_p50_ms":       o.p50ms,
		"append_p95_ms":       o.p95ms,
	}
	// The harness's own numbers describe the untraced pass: that is the
	// one the end-to-end metrics come from.
	res.bench = map[string]float64{
		"bench.raw_wall_s":         o.rawWallS,
		"bench.prep_s":             prep.Seconds(),
		"bench.ref_ns_mean":        o.stats.RefMean,
		"bench.ref_ns_cv":          o.stats.RefCV,
		"bench.ref_samples":        float64(o.stats.Samples),
		"bench.cal_overhead_share": o.calS / o.rawWallS,
	}
	if !traced {
		return res, nil
	}

	tr := newTracer(name, e.seed)
	to, err := w.pass(e, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", name, err)
	}
	res.attempted += to.attempted
	res.failed += to.failed
	layer := to.layer
	if err := w.probe(e, layer); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", name, err)
	}
	if err := tr.write(e.root); err != nil {
		return nil, err
	}
	for k, v := range res.bench {
		layer[k] = v
	}
	layer["bench.trace_overhead_share"] = to.linkS/o.linkS - 1
	res.perLayer = layer
	return res, nil
}

// check rejects a result the driver could not use: every listed metric
// must be present and finite, and the end-to-end ones non-zero (a run
// whose outputs were wrong may report a zero, e.g. a precision of 0).
func (r *result) check(spec *benchSpec) error {
	for _, m := range spec.EndToEnd {
		v, ok := r.endToEnd[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (v == 0 && r.failed == 0) {
			return fmt.Errorf("%s: end-to-end metric %s is %v", r.workload, m.Name, v)
		}
	}
	if r.perLayer == nil {
		return nil
	}
	for _, m := range spec.PerLayer {
		if v := r.perLayer[m.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: per-layer metric %s is %v", r.workload, m.Name, v)
		}
	}
	return nil
}

// add appends a run to a report.
func (rep *report) add(spec *benchSpec, r *result) {
	wl := rep.Workloads[r.workload]
	if wl == nil {
		wl = &wlReport{EndToEnd: map[string]*series{}}
		rep.Workloads[r.workload] = wl
	}
	rep.Header.InputSHA256[r.workload] = r.digest
	wl.Attempted = append(wl.Attempted, r.attempted)
	wl.Failed = append(wl.Failed, r.failed)
	wl.Recall = append(wl.Recall, r.recall)
	push := func(into map[string]*series, defs []metricDef, vals map[string]float64) {
		for _, m := range defs {
			s := into[m.Name]
			if s == nil {
				s = &series{Unit: m.Unit}
				into[m.Name] = s
			}
			s.Values = append(s.Values, vals[m.Name])
		}
	}
	push(wl.EndToEnd, spec.EndToEnd, r.endToEnd)
	if r.perLayer != nil {
		if wl.PerLayer == nil {
			wl.PerLayer = map[string]*series{}
		}
		push(wl.PerLayer, spec.PerLayer, r.perLayer)
	}
}
