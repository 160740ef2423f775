package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestConfusion(t *testing.T) {
	c := Confusion{TruePositives: 8, FalsePositives: 2, FalseNegatives: 8}
	if !almost(c.Precision(), 0.8) {
		t.Errorf("precision = %v", c.Precision())
	}
	if !almost(c.Recall(), 0.5) {
		t.Errorf("recall = %v", c.Recall())
	}
	want := 2 * 0.8 * 0.5 / (0.8 + 0.5)
	if !almost(c.F1(), want) {
		t.Errorf("f1 = %v, want %v", c.F1(), want)
	}
	if !strings.Contains(c.String(), "precision=0.8000") {
		t.Errorf("String = %q", c.String())
	}
}

// TestConfusionEdgeCases pins the package's 0/0 conventions, which the
// oracle harness and the experiment sweeps rely on (see the method doc
// comments): degenerate worlds must yield finite, defined scores, never
// NaN.
func TestConfusionEdgeCases(t *testing.T) {
	// Empty relations: nothing labeled, nothing to find.
	var empty Confusion
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Error("empty confusion should report perfect precision/recall")
	}
	if empty.F1() != 1 {
		t.Errorf("empty confusion f1 = %v, want 1 (harmonic mean of two 1s)", empty.F1())
	}

	// Zero labeled pairs but existing true matches: the SMC budget ran
	// out before labeling anything. Precision stays 1 (no wrong answer),
	// recall collapses to 0.
	unlabeled := Confusion{FalseNegatives: 5}
	if unlabeled.Precision() != 1 {
		t.Errorf("precision = %v with zero labeled pairs, want 1", unlabeled.Precision())
	}
	if unlabeled.Recall() != 0 {
		t.Errorf("recall = %v with all matches missed, want 0", unlabeled.Recall())
	}

	// Zero true matches but labeled pairs: disjoint relations where the
	// matcher still guessed. Recall stays 1, precision collapses to 0.
	disjoint := Confusion{FalsePositives: 3}
	if disjoint.Recall() != 1 {
		t.Errorf("recall = %v with zero true matches, want 1", disjoint.Recall())
	}
	if disjoint.Precision() != 0 {
		t.Errorf("precision = %v with only false positives, want 0", disjoint.Precision())
	}

	// F1's own 0/0: both components zero is the worst score, not NaN.
	zeroF1 := Confusion{FalsePositives: 1, FalseNegatives: 1}
	if zeroF1.F1() != 0 {
		t.Errorf("f1 = %v, want 0", zeroF1.F1())
	}

	for _, c := range []Confusion{empty, unlabeled, disjoint, zeroF1} {
		for name, v := range map[string]float64{"precision": c.Precision(), "recall": c.Recall(), "f1": c.F1()} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%+v: %s = %v, want finite", c, name, v)
			}
		}
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{PerInvocation: 430 * time.Millisecond, BytesPerInvocation: 2048}
	if got := m.Time(100); got != 43*time.Second {
		t.Errorf("Time(100) = %v, want 43s (the paper's 0.43s per comparison)", got)
	}
	if got := m.Bytes(3); got != 6144 {
		t.Errorf("Bytes(3) = %d", got)
	}
}

func TestResumeStats(t *testing.T) {
	var fresh ResumeStats
	if fresh.Resumed() {
		t.Error("zero-value ResumeStats claims a resume happened")
	}
	s := ResumeStats{ResumedPairs: 40, ReplayedAllowance: 40}
	if !s.Resumed() {
		t.Error("non-empty replay not reported as resumed")
	}
	if got := s.String(); got != "resumed=40 replayed-allowance=40" {
		t.Errorf("String() = %q", got)
	}
}
