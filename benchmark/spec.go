package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// Constants of the method. They are part of the benchmark's definition:
// changing one changes every reference-normalised number, so they are
// fixed here and restated in README.md.
const (
	// refNominalNs is the nominal cost of one reference modexp; a host
	// whose kernel takes exactly this long reports reference seconds
	// equal to wall seconds.
	refNominalNs = 2_000_000
	// refOpsPerSample is how many modexps one reference sample runs on
	// each of its goroutines.
	refOpsPerSample = 6
	// refWarmOps is how many untimed modexps precede a seam's samples.
	refWarmOps = 2
	// refMinSamples is the least number of reference samples a timed
	// region takes in a real run (sizes.RefSamples). Single samples
	// scatter by ≈15 % on a shared host, so it takes this many for their
	// mean to be good to ≈2 %.
	refMinSamples = 48
	// refSeed draws the fixed modulus, exponent and base of the kernel.
	refSeed = 20080407

	defaultSeed = 20080407
	parallelism = 2 // GOMAXPROCS, SMC lanes, fleet workers
	theta       = 0.05
	anonymityK  = 32
	secureHint  = 32 // pairs per CompareBatch on secure-inproc
	fleetChunk  = 32 // distrib.JobConfig.ChunkPairs
	// fleetHint is the ChunkHint the wrapper declares on fleet-procs: one
	// chunk per worker per batch. The pool's own hint (four chunks per
	// worker) leaves two seams in a run, too few to follow the host.
	fleetHint = fleetChunk * parallelism
	// sessionSeamEvery is how many results apart session-tcp's in-round
	// seams are; RunQuery's own batches offer only one seam per 256.
	sessionSeamEvery = 32
	sessionBatch     = 256 // session.RunQuery's fixed batch size
	workloadLimit    = 150 // seconds before a hung workload is abandoned
)

var workloadNames = []string{"secure-inproc", "plain-fullscale", "session-tcp", "fleet-procs", "live-ingest"}

// metricDef is one entry of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the metric names, units, directions and
// bounds the harness emits and -compare judges against.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// findRoot walks up from the working directory to the checkout root,
// the directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json lists no metrics")
	}
	return &s, nil
}

// sizes fixes how much work each workload does. sizesFor derives them
// from the run length alone, so one --seconds value always means the
// same inputs and the same number of operations.
type sizes struct {
	KeyBits        int `json:"key_bits"`
	SecureRecords  int `json:"secure_records"`
	SecurePairs    int `json:"secure_pairs"`
	SessionPairs   int `json:"session_pairs"`
	FleetPairs     int `json:"fleet_pairs"`
	PlainRecords   int `json:"plain_records"`
	PlainReps      int `json:"plain_reps"`
	LiveRecords    int `json:"live_records"`
	LiveBatches    int `json:"live_batches_per_side"`
	Setups         int `json:"setups"`
	WarmPairs      int `json:"warm_pairs"`
	WarmBatches    int `json:"warm_batches"`
	ProbeOps       int `json:"probe_ops"`
	CompareProbe   int `json:"compare_probe_calls"`
	LaneProbePairs int `json:"lane_probe_pairs"`
	InprocPairs    int `json:"inproc_reference_pairs"`
	RefSamples     int `json:"ref_samples_per_region"`
}

// sizesFor scales the pair, repetition and record counts so each timed
// region lasts about the requested seconds on the class of host the
// issue was sized on (2 vCPUs, ≈70 secure pairs/s, ≈2.1 s per
// full-scale link, ≈5k ingested records/s at 48,000 records).
func sizesFor(seconds int) sizes {
	s := float64(seconds)
	atLeast := func(v float64, min int) int {
		if n := int(math.Round(v)); n > min {
			return n
		}
		return min
	}
	// Live-ingest cost grows with the square of the population: each
	// record is compared against everything already present.
	live := atLeast(36000*math.Sqrt(s/10)/300, 4) * 300
	return sizes{
		KeyBits:        1024,
		SecureRecords:  900,
		SecurePairs:    secureHint * atLeast(2.4*s, 2),
		SessionPairs:   sessionBatch * atLeast(0.3*s, 1),
		FleetPairs:     fleetHint * atLeast(1.4*s, 2),
		PlainRecords:   30162,
		PlainReps:      atLeast(0.5*s, 3),
		LiveRecords:    live,
		LiveBatches:    100,
		Setups:         100,
		WarmPairs:      32,
		WarmBatches:    5,
		ProbeOps:       30,
		CompareProbe:   100,
		LaneProbePairs: 64,
		InprocPairs:    96,
		RefSamples:     refMinSamples,
	}
}
