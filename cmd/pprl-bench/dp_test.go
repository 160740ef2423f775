package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunDPJSON: -json with the dp artifact must write a parseable
// ε-vs-recall-vs-cost report to the dp report path, with both sweep arms
// populated and the padding shrinking as ε grows (for a fixed seed).
// Precision and spend are DPPerfReport.Gate's, which run itself enforces.
func TestRunDPJSON(t *testing.T) {
	dpOut := filepath.Join(t.TempDir(), "BENCH_dp.json")
	var buf bytes.Buffer
	if err := run(&buf, "dp", 240, false, 3, true, "", dpOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dpOut)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep struct {
		Records    int     `json:"records"`
		Delta      float64 `json:"delta"`
		Level      int     `json:"level"`
		TruthPairs int     `json:"truth_pairs"`
		EpsPoints  []struct {
			Epsilon      float64 `json:"epsilon"`
			TotalEpsilon float64 `json:"total_epsilon"`
			DummyPairs   int64   `json:"dummy_pairs"`
		} `json:"epsilon_points"`
		KPoints []struct {
			K      int     `json:"k"`
			Recall float64 `json:"recall"`
		} `json:"k_points"`
		BestEpsilon float64 `json:"best_epsilon"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Records != 240 || rep.TruthPairs <= 0 || rep.Delta <= 0 || rep.Level <= 0 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if len(rep.EpsPoints) == 0 || len(rep.KPoints) == 0 {
		t.Fatalf("sweep arms not populated: %d ε points, %d k points", len(rep.EpsPoints), len(rep.KPoints))
	}
	for i, pt := range rep.EpsPoints {
		if pt.TotalEpsilon != 2*pt.Epsilon {
			t.Errorf("ε=%g: composed epsilon %g, want %g", pt.Epsilon, pt.TotalEpsilon, 2*pt.Epsilon)
		}
		// For a fixed seed the noise scales as 1/ε, so padding shrinks
		// monotonically along the (ascending) sweep.
		if i > 0 && pt.DummyPairs > rep.EpsPoints[i-1].DummyPairs {
			t.Errorf("padding grew with ε: %d at ε=%g, %d at ε=%g",
				rep.EpsPoints[i-1].DummyPairs, rep.EpsPoints[i-1].Epsilon, pt.DummyPairs, pt.Epsilon)
		}
	}
	if rep.BestEpsilon == 0 {
		t.Error("best epsilon not selected")
	}
	if !strings.Contains(buf.String(), "differentially private blocking") {
		t.Error("dp table missing from output")
	}
}
