package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pprl/internal/experiment"
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

// TestRunJSONStream: under -json every selected artifact is one JSON
// value, the worked example's prose included, so the output decodes value
// by value to its end.
func TestRunJSONStream(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "example,fig3", 240, false, 3, true, "", ""); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	var ids []string
	for {
		var v struct {
			ID   string `json:"id"`
			Text string `json:"text"`
		}
		if err := dec.Decode(&v); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("-json output is not a JSON stream after %v: %v", ids, err)
		}
		if v.ID == "example" && !strings.Contains(v.Text, "6 matched, 12 mismatched, 18 unknown") {
			t.Errorf("example text wrong: %q", v.Text)
		}
		ids = append(ids, v.ID)
	}
	if !slices.Equal(ids, []string{"example", "fig3"}) {
		t.Errorf("decoded artifacts %v, want [example fig3]", ids)
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

// TestRunTierJSON: -json with the tier artifact must write a parseable,
// stamped three-tier-vs-baseline report to the tier report path, and the
// numbers must show the tier's contract: precision exactly 1 on every row,
// recall never below the baseline's, spend never above it.
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
		Stamp *struct {
			Host      string `json:"host"`
			GoVersion string `json:"go_version"`
			Commit    string `json:"commit"`
		} `json:"stamp"`
		Records      int     `json:"records"`
		TierLow      float64 `json:"tier_low"`
		UnknownPairs int64   `json:"unknown_pairs"`
		Points       []struct {
			Allowance     int64   `json:"allowance"`
			TierSpent     int64   `json:"tier_spent"`
			BaseSpent     int64   `json:"baseline_spent"`
			TierRecall    float64 `json:"tier_recall"`
			BaseRecall    float64 `json:"baseline_recall"`
			TierPrecision float64 `json:"tier_precision"`
			TierNonMatch  int64   `json:"tier_nonmatched_pairs"`
		} `json:"points"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Stamp == nil || rep.Stamp.GoVersion == "" || rep.Stamp.Commit == "" {
		t.Errorf("report not stamped with host / Go / commit: %+v", rep.Stamp)
	}
	if rep.Records != 240 || rep.UnknownPairs <= 0 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if rep.TierLow <= 0 || rep.TierLow >= 1 {
		t.Errorf("threshold not populated: low=%v", rep.TierLow)
	}
	if len(rep.Points) == 0 {
		t.Fatalf("sweep points not populated: %+v", rep)
	}
	labeled := false
	for _, pt := range rep.Points {
		if pt.TierNonMatch > 0 {
			labeled = true
		}
		if pt.TierPrecision != 1 {
			t.Errorf("tier precision %v at allowance %d; the tier can only say NonMatch", pt.TierPrecision, pt.Allowance)
		}
		if pt.TierRecall < pt.BaseRecall {
			t.Errorf("tier recall %v below baseline %v at allowance %d", pt.TierRecall, pt.BaseRecall, pt.Allowance)
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

// TestReportFixtures pins the tier and dp reports at the 1,800-record
// smoke scale to testdata/, unstamped: these are the copies that used to
// sit at the repository root as BENCH_tier.json and BENCH_dp.json, where
// the paper-scale reports (`make perf`) now are. Regenerate deliberately
// with `go test ./cmd/pprl-bench -run ReportFixtures -update`.
func TestReportFixtures(t *testing.T) {
	tier, _, err := experiment.TierPerf(experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dp, _, err := experiment.DPPerf(experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]interface{ WriteJSON(io.Writer) error }{
		"BENCH_tier.json": tier, "BENCH_dp.json": dp,
	} {
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing fixture (run with -update): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s drifted from its fixture; diff manually or regenerate with -update.\ngot:\n%s", name, buf.String())
		}
	}
}
