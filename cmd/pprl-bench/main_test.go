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
	if err := run(&buf, "example,fig2,fig3,fig8,strategies,baselines", 600, false, 0, false, "", ""); err != nil {
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
	if err := run(&buf, "example,fig3", 240, false, 3, false, "", ""); err != nil {
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
	if err := run(&buf, "fig7", 240, false, 3, false, "", ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "fig6 —") || !strings.Contains(out, "fig7 —") {
		t.Errorf("fig6/7 selection broken: %q", out)
	}
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig3", 240, false, 3, true, "", ""); err != nil {
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
	if err := run(&buf, "baselines", 240, false, 3, false, "", ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pure SMC") {
		t.Error("baselines table missing")
	}
}

// TestRunTierJSON: -json with the tier artifact must write a parseable
// three-tier-vs-baseline report to the -tier-out path.
func TestRunTierJSON(t *testing.T) {
	tierOut := filepath.Join(t.TempDir(), "BENCH_tier.json")
	var buf bytes.Buffer
	if err := run(&buf, "tier", 240, false, 3, true, tierOut, ""); err != nil {
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
