package main

import (
	"math"
	"regexp"
	"runtime"
	"testing"
)

// shortSizes is every workload at a scale that finishes in seconds:
// 512-bit keys, 64 secure pairs, 1,800-record plaintext relations, a
// handful of batches.
func shortSizes() sizes {
	return sizes{
		KeyBits: 512, SecureRecords: 300,
		SecurePairs: 64, SessionPairs: 64, FleetPairs: 64,
		PlainRecords: 1800, PlainReps: 2,
		LiveRecords: 1800, LiveBatches: 5,
		Setups: 2, WarmPairs: 8, WarmBatches: 2,
		ProbeOps: 5, CompareProbe: 8, LaneProbePairs: 8, InprocPairs: 32,
		RefSamples: 4,
	}
}

// shortRun runs one workload at the short scale.
func shortRun(t *testing.T, name string, traced bool, canary string) *result {
	t.Helper()
	if runtime.NumCPU() < parallelism {
		t.Skipf("needs %d CPUs", parallelism)
	}
	runtime.GOMAXPROCS(parallelism)
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	clean := &cleanups{}
	t.Cleanup(clean.run)
	e, err := newEnv(root, defaultSeed, shortSizes(), clean)
	if err != nil {
		t.Fatal(err)
	}
	e.canary = canary
	res, err := runWorkload(e, name, traced)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestShortPass runs a traced pass of all five workloads and holds the
// output to BENCHMARK.json: every end-to-end metric present, finite and
// non-zero on every workload; every per-layer metric present and finite
// on every workload and filled by at least one; names in the allowed
// alphabet; outputs correct.
func TestShortPass(t *testing.T) {
	spec := loadTestSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q is outside the allowed alphabet", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloadNames))
	}
	filled := map[string]bool{}
	for i, w := range workloadNames {
		if spec.Workloads[i].Name != w {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, w)
		}
		res := shortRun(t, w, true, "")
		if err := res.check(spec); err != nil {
			t.Error(err)
		}
		if res.failed != 0 || res.attempted < 1 {
			t.Errorf("%s: %d of %d operations failed", w, res.failed, res.attempted)
		}
		if len(res.endToEnd) != len(spec.EndToEnd) {
			t.Errorf("%s: emitted %d end-to-end metrics, BENCHMARK.json lists %d", w, len(res.endToEnd), len(spec.EndToEnd))
		}
		if p := res.endToEnd["precision"]; p != 1 {
			t.Errorf("%s: precision %v under maximize-precision", w, p)
		}
		if r := res.perLayer["core.stage_sum_ratio"]; w == "plain-fullscale" && math.Abs(r-1) > 0.05 {
			t.Errorf("%s: stages sum to %.3f of the link", w, r)
		}
		for _, m := range spec.PerLayer {
			if res.perLayer[m.Name] != 0 {
				filled[m.Name] = true
			}
		}
		for k := range res.perLayer {
			if !seen[k] {
				t.Logf("%s: layer value %s is not in BENCHMARK.json and is not reported", w, k)
			}
		}
	}
	for _, m := range spec.PerLayer {
		// A counter that is zero when nothing goes wrong fills no workload.
		if !filled[m.Name] && m.Name != "service.refused_503" {
			t.Errorf("per-layer metric %s is filled by no workload", m.Name)
		}
	}
}

// TestDeterminism: the same seed gives the same inputs and the same
// exact outputs.
func TestDeterminism(t *testing.T) {
	a := shortRun(t, "secure-inproc", true, "")
	b := shortRun(t, "secure-inproc", true, "")
	if a.digest != b.digest {
		t.Errorf("input digest changed between runs: %s vs %s", a.digest, b.digest)
	}
	if a.recall != b.recall || a.attempted != b.attempted {
		t.Errorf("recall %v/%v, purchased %d/%d", a.recall, b.recall, a.attempted, b.attempted)
	}
	for _, k := range []string{"blocking.unknown_pairs", "smc.dec_per_pair", "smc.batch_calls"} {
		if a.perLayer[k] != b.perLayer[k] || a.perLayer[k] == 0 {
			t.Errorf("%s: %v vs %v", k, a.perLayer[k], b.perLayer[k])
		}
	}
}

// TestCanaries shows the correctness check bites: one flipped verdict
// and one dropped delta must each be counted as failures and turn the
// run's exit code non-zero.
func TestCanaries(t *testing.T) {
	spec := loadTestSpec(t)
	for _, c := range []struct{ workload, canary string }{
		{"secure-inproc", "flip"},
		{"live-ingest", "drop"},
	} {
		res := shortRun(t, c.workload, false, c.canary)
		if res.failed == 0 {
			t.Errorf("%s with canary %q: no failure counted", c.workload, c.canary)
		}
		rep := &report{Header: header{InputSHA256: map[string]string{}}, Workloads: map[string]*wlReport{}}
		if code := finish(spec, rep, res, ""); code == 0 {
			t.Errorf("%s with canary %q: exit code 0", c.workload, c.canary)
		}
	}
}

// TestQuartiles pins the spread estimator to the method the driver uses
// (Python's statistics.quantiles(v, n=4), exclusive).
func TestQuartiles(t *testing.T) {
	q1, q3, ok := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
}
