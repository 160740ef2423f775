package main

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"

	"pprl/internal/cliutil"
	"pprl/internal/core"
)

// TestRunLinkDP: -anon dp runs the pipeline under differentially
// private blocking and reports the ε accounting; with -eval on, every
// reported match is exact (precision 1) because DP blocking never
// asserts matches itself.
func TestRunLinkDP(t *testing.T) {
	a, b := writePair(t)
	var buf bytes.Buffer
	opts := baseOpts(a, b)
	opts.anonName = "dp"
	opts.Epsilon = 8
	opts.DPSeed = 7
	opts.AllowanceFraction = 0.5
	opts.eval = true
	if err := run(&buf, opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dp-eps=16") || !strings.Contains(out, "dp: ε=8 per holder") {
		t.Errorf("dp accounting missing from output: %q", out)
	}
	if !strings.Contains(out, "precision=1.0000") {
		t.Errorf("DP run reported inexact matches: %q", out)
	}

	// The allowance is a fraction of the padded pairs the walk compares,
	// and the summary names that space beside it.
	job := cliutil.Job{AlicePath: a, BobPath: b, Params: opts.Params, K: opts.K,
		AllowanceFraction: opts.AllowanceFraction, Anonymizer: opts.anonName}
	l, err := job.Run(nil, func(*core.Config) (io.Closer, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	walkA, walkB := l.Result.Padded()
	var allowance, space int
	for _, f := range strings.Fields(out) {
		if v, ok := strings.CutPrefix(f, "allowance="); ok {
			allowance, _ = strconv.Atoi(v)
		}
		if v, ok := strings.CutPrefix(f, "dp-pairs="); ok {
			space, _ = strconv.Atoi(v)
		}
	}
	if want := len(walkA.View.ClassOf) * len(walkB.View.ClassOf); space != want || allowance == 0 || allowance > space {
		t.Errorf("summary prints dp-pairs=%d and allowance=%d; the walk compares %d padded pairs: %q", space, allowance, want, out)
	}
}

// TestRunLinkFlagValidation: out-of-range knobs are rejected up front
// with the shared cliutil error text, before any file is read.
func TestRunLinkFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
		want string
	}{
		{"negative theta", func(o *options) { o.Theta = -1 }, "-theta"},
		{"allowance above 1", func(o *options) { o.AllowanceFraction = 1.5 }, "-allowance"},
		{"tier low of 1", func(o *options) { o.TierLow = 1 }, "-tier-low"},
		{"dp without epsilon", func(o *options) { o.anonName = "dp" }, "-epsilon"},
		{"epsilon without dp", func(o *options) { o.Epsilon = 2 }, "-anon dp"},
		{"negative epsilon", func(o *options) { o.anonName = "dp"; o.Epsilon = -2 }, "-epsilon"},
		{"delta out of range", func(o *options) { o.anonName = "dp"; o.Epsilon = 2; o.DPDelta = 0.7 }, "-dp-delta"},
		{"negative dp level", func(o *options) { o.anonName = "dp"; o.Epsilon = 2; o.DPLevel = -1 }, "-dp-level"},
	}
	for _, tc := range cases {
		// Nonexistent paths prove validation fires before file loads.
		opts := baseOpts("/nonexistent-a.csv", "/nonexistent-b.csv")
		tc.mut(&opts)
		err := run(nil, opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
