package cliutil

import (
	"strings"
	"testing"

	"pprl/internal/core"
)

func TestTierModeByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want core.TierMode
	}{
		{"", core.TierOff},
		{"off", core.TierOff},
		{"OFF", core.TierOff},
		{"bloom", core.TierBloom},
		{"Bloom", core.TierBloom},
	} {
		got, err := TierModeByName(tc.name)
		if err != nil {
			t.Fatalf("TierModeByName(%q): %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("TierModeByName(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
	if _, err := TierModeByName("paillier"); err == nil || !strings.Contains(err.Error(), "unknown tier mode") {
		t.Fatalf("TierModeByName(\"paillier\") = %v, want unknown-mode error", err)
	}
}
