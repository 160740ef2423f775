package main

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"strings"
	"testing"

	"pprl/internal/cliutil"
)

// TestThreePartyDPOverTCP runs the distributed deployment with both
// holders publishing differentially private releases: -method dp with
// distinct per-holder seeds, real TCP, real (256-bit) Paillier crypto.
func TestThreePartyDPOverTCP(t *testing.T) {
	aCSV, bCSV := writePairCSVs(t)
	queryAddr := freePort(t)
	peerAddr := freePort(t)

	errs := make(chan error, 2)
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- runQuery(context.Background(), &out, baseQuery(queryAddr, 0.02))
	}()
	go func() {
		errs <- runHolder(context.Background(), holder(queryAddr, peerAddr, "", aCSV, "dp", cliutil.Params{Epsilon: 8, DPSeed: 1}), "alice")
	}()
	go func() {
		errs <- runHolder(context.Background(), holder(queryAddr, "", peerAddr, bCSV, "dp", cliutil.Params{Epsilon: 8, DPSeed: 2}), "bob")
	}()
	if err := <-done; err != nil {
		t.Fatalf("query: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("holder: %v", err)
		}
	}
	text := out.String()
	if !strings.Contains(text, "alice dp") || !strings.Contains(text, "bob dp") {
		t.Errorf("view metadata missing dp method: %q", text)
	}
	if !strings.Contains(text, "dp: composed ε=16") {
		t.Errorf("query output missing dp accounting: %q", text)
	}
	if !strings.Contains(text, "matches:") {
		t.Errorf("query output incomplete: %q", text)
	}
}

// TestPartyDPFlagValidation: inconsistent holder DP flags and
// out-of-range query knobs fail before anything connects.
func TestPartyDPFlagValidation(t *testing.T) {
	// The data file does not exist: flags the holder accepts surface as
	// its not-found error, after validation and before any dial.
	dp := func(method string, p cliutil.Params, level int) error {
		h := holder("127.0.0.1:1", "", "127.0.0.1:1", "/nonexistent.csv", method, p)
		h.DPLevel = level
		return runHolder(context.Background(), h, "bob")
	}
	if err := dp("dp", cliutil.Params{}, 0); err == nil || !strings.Contains(err.Error(), "-epsilon") {
		t.Errorf("-method dp without -epsilon: err = %v", err)
	}
	if err := dp("entropy", cliutil.Params{Epsilon: 2}, 0); err == nil || !strings.Contains(err.Error(), "-method dp") {
		t.Errorf("-epsilon with k-method: err = %v", err)
	}
	if err := dp("dp", cliutil.Params{Epsilon: -1}, 0); err == nil {
		t.Error("negative epsilon accepted")
	}
	if err := dp("dp", cliutil.Params{Epsilon: 2, DPDelta: 0.9}, 0); err == nil {
		t.Error("out-of-range delta accepted")
	}
	if err := dp("dp", cliutil.Params{Epsilon: 2}, -1); err == nil {
		t.Error("negative level accepted")
	}
	if err := dp("dp", cliutil.Params{Epsilon: 2, DPDelta: 1e-6, DPSeed: 3}, 2); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("valid dp options rejected: %v", err)
	}
	if err := runQuery(context.Background(), nil, queryOptions{listen: "127.0.0.1:0", CLI: cliutil.CLI{Params: cliutil.Params{Theta: -0.5}}}); err == nil || !strings.Contains(err.Error(), "-theta") {
		t.Errorf("negative theta: err = %v", err)
	}
}
