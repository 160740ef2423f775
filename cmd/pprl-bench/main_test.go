package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// TestGoldenOutput pins the exact rendered output of a representative
// artifact subset at a fixed seed and scale. Every quantity involved is
// deterministic (seeded generators, exact arithmetic), so any diff means
// behavior actually changed; regenerate deliberately with
// `go test ./cmd/pprl-bench -run Golden -update`.
func TestGoldenOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "example,fig2,fig3,fig8,strategies,baselines", 600, false, 0, false, 512, "", "", "", "", 24, "", ""); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden file updated")
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output drifted from golden file; diff manually or regenerate with -update.\ngot:\n%s", buf.String())
	}
}

func TestRunSelectedArtifacts(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "example,fig3", 240, false, 3, false, 512, "", "", "", "", 24, "", ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "6 matched, 12 mismatched, 18 unknown") {
		t.Error("worked example missing or wrong")
	}
	if !strings.Contains(out, "fig3 — Blocking efficiency") {
		t.Error("fig3 missing")
	}
	if strings.Contains(out, "fig4") {
		t.Error("unselected artifact rendered")
	}
}

func TestRunFig6And7Selection(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig7", 240, false, 3, false, 512, "", "", "", "", 24, "", ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "fig6 —") || !strings.Contains(out, "fig7 —") {
		t.Errorf("fig6/7 selection broken: %q", out)
	}
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig3", 240, false, 3, true, 512, "", "", "", "", 24, "", ""); err != nil {
		t.Fatal(err)
	}
	var tab struct {
		ID      string     `json:"id"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tab); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if tab.ID != "fig3" || len(tab.Columns) != 2 || len(tab.Rows) == 0 {
		t.Errorf("parsed table wrong: %+v", tab)
	}
}

func TestRunBaselines(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "baselines", 240, false, 3, false, 512, "", "", "", "", 24, "", ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pure SMC") {
		t.Error("baselines table missing")
	}
}

// TestRunSMCPerfJSON: -json with the smcperf artifact must write a
// parseable machine-readable report to the -perf-out path.
func TestRunSMCPerfJSON(t *testing.T) {
	perfOut := filepath.Join(t.TempDir(), "BENCH_smc.json")
	var buf bytes.Buffer
	if err := run(&buf, "smcperf", 240, false, 3, true, 256, perfOut, "", "", "", 24, "", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(perfOut)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep struct {
		GOMAXPROCS int `json:"gomaxprocs"`
		Workers    int `json:"workers"`
		KeyBits    int `json:"key_bits"`
		Engines    []struct {
			Engine      string  `json:"engine"`
			Packing     string  `json:"packing"`
			Rate        float64 `json:"comparisons_per_sec"`
			Bytes       int64   `json:"bytes_per_comparison"`
			ResultBytes int64   `json:"result_bytes_per_comparison"`
			Decryptions float64 `json:"decryptions_per_comparison"`
		} `json:"engines"`
		Speedup             float64 `json:"speedup"`
		DecryptionReduction float64 `json:"decryption_reduction"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.GOMAXPROCS < 1 || rep.Workers < 1 || rep.KeyBits != 256 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if len(rep.Engines) != 4 {
		t.Fatalf("report has %d engine cells, want 4 (serial/sharded × off/packed)", len(rep.Engines))
	}
	cells := map[string]int{}
	for i, e := range rep.Engines {
		cells[e.Engine+"/"+e.Packing] = i
		if e.Rate <= 0 || e.Bytes <= 0 || e.ResultBytes <= 0 || e.Decryptions <= 0 {
			t.Errorf("engine cell %s/%s metrics not populated: %+v", e.Engine, e.Packing, e)
		}
	}
	for _, want := range []string{"serial/off", "serial/packed", "sharded/off", "sharded/packed"} {
		if _, ok := cells[want]; !ok {
			t.Errorf("missing engine cell %s", want)
		}
	}
	if rep.Speedup <= 0 || rep.DecryptionReduction <= 1 {
		t.Errorf("derived ratios not populated: speedup=%v decryption_reduction=%v", rep.Speedup, rep.DecryptionReduction)
	}
	// Packing must shrink the result leg and the decryption count.
	off, packed := rep.Engines[cells["serial/off"]], rep.Engines[cells["serial/packed"]]
	if packed.ResultBytes >= off.ResultBytes {
		t.Errorf("packed result bytes %d not below unpacked %d", packed.ResultBytes, off.ResultBytes)
	}
	if packed.Decryptions >= off.Decryptions {
		t.Errorf("packed decryptions %v not below unpacked %v", packed.Decryptions, off.Decryptions)
	}
	// The stdout table rides along for humans.
	if !strings.Contains(buf.String(), "smcperf") {
		t.Error("smcperf table missing from output")
	}
}

// TestRunBlockingJSON: -json with the blocking artifact must write a
// parseable dense-vs-indexed report to the -blocking-out path.
func TestRunBlockingJSON(t *testing.T) {
	blockingOut := filepath.Join(t.TempDir(), "BENCH_blocking.json")
	var buf bytes.Buffer
	if err := run(&buf, "blocking", 240, false, 3, true, 512, "", blockingOut, "", "", 24, "", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(blockingOut)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep struct {
		Records        int     `json:"records"`
		ClassPairs     int64   `json:"class_pairs"`
		DenseRate      float64 `json:"dense_class_pairs_per_sec"`
		IndexedRate    float64 `json:"indexed_class_pairs_per_sec"`
		RuleEvals      int64   `json:"rule_evaluations"`
		Pruned         int64   `json:"pruned_class_pairs"`
		PrunedFraction float64 `json:"pruned_fraction"`
		LabelsBytes    int64   `json:"dense_labels_bytes"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Records != 240 || rep.ClassPairs <= 0 || rep.LabelsBytes <= 0 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if rep.DenseRate <= 0 || rep.IndexedRate <= 0 {
		t.Errorf("report rates not populated: %+v", rep)
	}
	if rep.RuleEvals+rep.Pruned != rep.ClassPairs || rep.PrunedFraction < 0 {
		t.Errorf("pruning accounting inconsistent: %+v", rep)
	}
	if !strings.Contains(buf.String(), "blocking engines") {
		t.Error("blocking table missing from output")
	}
}

// TestRunTierJSON: -json with the tier artifact must write a parseable
// three-tier-vs-baseline report to the -tier-out path.
func TestRunTierJSON(t *testing.T) {
	tierOut := filepath.Join(t.TempDir(), "BENCH_tier.json")
	var buf bytes.Buffer
	if err := run(&buf, "tier", 240, false, 3, true, 512, "", "", tierOut, "", 24, "", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tierOut)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep struct {
		Records      int     `json:"records"`
		TierHigh     float64 `json:"tier_high"`
		TierLow      float64 `json:"tier_low"`
		UnknownPairs int64   `json:"unknown_pairs"`
		Points       []struct {
			Allowance    int64   `json:"allowance"`
			TierSpent    int64   `json:"tier_spent"`
			BaseSpent    int64   `json:"baseline_spent"`
			Gain         float64 `json:"gain"`
			TierMatched  int64   `json:"tier_matched_pairs"`
			TierNonMatch int64   `json:"tier_nonmatched_pairs"`
		} `json:"points"`
		BestGain float64 `json:"best_gain"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Records != 240 || rep.UnknownPairs <= 0 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if rep.TierLow >= rep.TierHigh {
		t.Errorf("thresholds not populated: low=%v high=%v", rep.TierLow, rep.TierHigh)
	}
	if len(rep.Points) == 0 || rep.BestGain <= 0 {
		t.Errorf("sweep points not populated: %+v", rep)
	}
	labeled := false
	for _, pt := range rep.Points {
		if pt.TierMatched+pt.TierNonMatch > 0 {
			labeled = true
		}
		if pt.TierSpent > pt.BaseSpent {
			t.Errorf("tier spent %d above baseline %d at allowance %d", pt.TierSpent, pt.BaseSpent, pt.Allowance)
		}
	}
	if !labeled {
		t.Error("tier never labeled a pair across the sweep")
	}
	if !strings.Contains(buf.String(), "three-tier triage") {
		t.Error("tier table missing from output")
	}
}

// TestRunSMCPerfTextNoFile: without -json no report file is produced.
func TestRunSMCPerfTextNoFile(t *testing.T) {
	perfOut := filepath.Join(t.TempDir(), "BENCH_smc.json")
	var buf bytes.Buffer
	if err := run(&buf, "smcperf", 240, false, 3, false, 256, perfOut, "", "", "", 24, "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(perfOut); err == nil {
		t.Error("report written without -json")
	}
	if !strings.Contains(buf.String(), "comparisons/sec") {
		t.Error("smcperf text table missing")
	}
}

// TestRunDistributedJSON: -json with the distributed artifact must write
// a parseable fleet-scaling report to the -distributed-out path.
func TestRunDistributedJSON(t *testing.T) {
	distOut := filepath.Join(t.TempDir(), "BENCH_distributed.json")
	var buf bytes.Buffer
	if err := run(&buf, "distributed", 120, false, 3, true, 64, "", "", "", "", 24, distOut, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(distOut)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep struct {
		Pairs         int     `json:"pairs"`
		CostMsPerPair float64 `json:"cost_ms_per_pair"`
		Fleets        []struct {
			Workers int     `json:"workers"`
			Rate    float64 `json:"comparisons_per_sec"`
			Speedup float64 `json:"speedup"`
		} `json:"fleets"`
		Speedup2 float64 `json:"speedup_2_workers"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Pairs != 24 || rep.CostMsPerPair <= 0 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if len(rep.Fleets) != 3 || rep.Speedup2 <= 0 {
		t.Errorf("fleet cells not populated: %+v", rep)
	}
	for _, f := range rep.Fleets {
		if f.Rate <= 0 {
			t.Errorf("%d-worker rate not populated", f.Workers)
		}
	}
	if !strings.Contains(buf.String(), "distributed SMC fleet scaling") {
		t.Error("distributed table missing from output")
	}
}
