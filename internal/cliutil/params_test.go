package cliutil

import (
	"errors"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"pprl/internal/dpblock"
)

// TestFlagsCoverTheBlock: every parameter of the block that has a flag is
// registered under the name FlagNames spells in refusals, and an empty
// command line leaves the paper's defaults.
func TestFlagsCoverTheBlock(t *testing.T) {
	var c CLI
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.Flags(fs, QueryFlags|HolderFlags)
	// -strategy, -secure, -smc-workers, -tier and -tier-low are pprl-link's
	// alone: a session has none of these choices. (-allowance carries the
	// fraction, not the block's count.)
	flagless := map[string]bool{"strategy": true, "secure": true, "smc_workers": true, "tier": true, "tier_low": true}
	typ := reflect.TypeOf(Params{})
	for i := 0; i < typ.NumField(); i++ {
		key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		name := strings.TrimPrefix(FlagNames(key), "-")
		if fs.Lookup(name) == nil != flagless[key] {
			t.Errorf("parameter %q: flag -%s registered = %v", key, name, fs.Lookup(name) != nil)
		}
	}
	if err := fs.Parse([]string{"-qids", "age,sex"}); err != nil {
		t.Fatal(err)
	}
	want := CLI{Params: Params{QIDs: []string{"age", "sex"}, Theta: 0.05, Heuristic: "minAvgFirst", KeyBits: 1024},
		AllowanceFraction: 0.015, K: 32}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("defaults = %+v, want %+v", c, want)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("the defaults do not validate: %v", err)
	}
}

// TestValidateSpellsTheSurface: one rule, two spellings.
func TestValidateSpellsTheSurface(t *testing.T) {
	p := Params{KeyBits: 32}
	for want, names := range map[string]Names{
		"key_bits must be at least 64 (or 0 for the default 1024), got 32": JSONNames,
		"-keybits must be at least 64 (or 0 for the default 1024), got 32": FlagNames,
	} {
		if err := p.Validate(names); err == nil || err.Error() != want {
			t.Errorf("err = %v, want %q", err, want)
		}
	}
	p = Params{Epsilon: 2, DPDelta: 0.7}
	if err := p.Validate(JSONNames); err == nil || !strings.HasPrefix(err.Error(), "dp_delta must be in [0, 0.5)") {
		t.Errorf("API spelling: %v", err)
	}
	if err := p.Validate(FlagNames); err == nil || !strings.HasPrefix(err.Error(), "-dp-delta must be in [0, 0.5)") {
		t.Errorf("flag spelling: %v", err)
	}
	// The tier under DP names both fields, and the sentinel survives.
	p = Params{Epsilon: 2, Tier: "bloom"}
	for prefix, names := range map[string]Names{"tier bloom excludes epsilon: ": JSONNames, "-tier bloom excludes -epsilon: ": FlagNames} {
		if err := p.Validate(names); !errors.Is(err, dpblock.ErrTierUnderDP) || !strings.HasPrefix(err.Error(), prefix) {
			t.Errorf("tier under DP: err = %v, want ErrTierUnderDP after %q", err, prefix)
		}
	}
}
