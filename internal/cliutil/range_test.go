package cliutil

import (
	"math"
	"strings"
	"testing"
)

func TestRangeValidate(t *testing.T) {
	cases := []struct {
		r  Range
		v  float64
		ok bool
	}{
		{ThetaRange, 0.05, true},
		{ThetaRange, 1.5, true}, // thresholds ≥ 1 are legal (always-match attribute)
		{ThetaRange, 0, false},
		{ThetaRange, -0.1, false},
		{ThetaRange, math.NaN(), false},
		{EpsilonRange, 0.5, true},
		{EpsilonRange, 100, true},
		{EpsilonRange, 0, false},
		{EpsilonRange, -1, false},
		{EpsilonRange, math.Inf(1), false},
		{DeltaRange, 0, true},
		{DeltaRange, 1e-6, true},
		{DeltaRange, 0.5, false},
		{DeltaRange, -0.1, false},
		{TierLowRange, 0, true},
		{TierLowRange, 0.4, true},
		{TierLowRange, 0.99, true},
		{TierLowRange, math.NaN(), false},
		{TierLowRange, 1, false},
		{TierLowRange, -0.2, false},
		{AllowanceFractionRange, 0, true},
		{AllowanceFractionRange, 1, true},
		{AllowanceFractionRange, 1.01, false},
	}
	for _, c := range cases {
		err := c.r.Validate(c.v)
		if (err == nil) != c.ok {
			t.Errorf("%s.Validate(%v): got %v, want ok=%v", c.r.Name, c.v, err, c.ok)
		}
	}
}

func TestRangeErrorText(t *testing.T) {
	err := TierLowRange.Validate(1.5)
	if err == nil {
		t.Fatal("want error")
	}
	want := "-tier-low must be in [0, 1), got 1.5"
	if err.Error() != want {
		t.Errorf("error text %q, want %q", err.Error(), want)
	}
	if err := EpsilonRange.Validate(-2); err == nil || !strings.Contains(err.Error(), "(0, ∞)") {
		t.Errorf("epsilon error text = %v, want open-infinity interval", err)
	}
	if err := EpsilonRange.Named("epsilon").Validate(0); err == nil || !strings.HasPrefix(err.Error(), "epsilon must") {
		t.Errorf("Named did not rename: %v", err)
	}
}
