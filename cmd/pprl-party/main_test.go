package main

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pprl"
	"pprl/internal/cliutil"
)

func writePairCSVs(t *testing.T) (a, b string) {
	t.Helper()
	schema := pprl.AdultSchema()
	full := pprl.GenerateAdult(schema, 90, 3)
	da, db := pprl.SplitOverlap(full, rand.New(rand.NewSource(4)))
	dir := t.TempDir()
	write := func(d *pprl.Dataset, name string) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := d.WriteCSV(f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return write(da, "a.csv"), write(db, "b.csv")
}

// freePort reserves a localhost port and returns its address.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// baseQuery are the querying party's options the tests vary from:
// 256-bit keys keep the real crypto fast.
func baseQuery(listen string, allowance float64) queryOptions {
	return queryOptions{
		listen: listen,
		CLI: cliutil.CLI{
			Params: cliutil.Params{
				QIDs:      pprl.DefaultAdultQIDs(),
				Theta:     0.05,
				Heuristic: "minAvgFirst",
				KeyBits:   256,
			},
			AllowanceFraction: allowance,
		},
	}
}

// holder are a data holder's options: k = 8 over the given file.
func holder(queryAddr, peerListen, peerAddr, data, method string, dp cliutil.Params) holderOptions {
	return holderOptions{
		CLI:       cliutil.CLI{Params: dp, K: 8},
		queryAddr: queryAddr, peer: peerListen + peerAddr,
		dataPath: data, method: method,
	}
}

// TestThreePartyOverTCP runs the complete distributed deployment: three
// role functions over real TCP sockets on localhost, with real (256-bit)
// Paillier crypto.
func TestThreePartyOverTCP(t *testing.T) {
	aCSV, bCSV := writePairCSVs(t)
	queryAddr := freePort(t)
	peerAddr := freePort(t)

	errs := make(chan error, 2)
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		q := baseQuery(queryAddr, 0.002)
		q.Journal = filepath.Join(t.TempDir(), "party.wal")
		done <- runQuery(context.Background(), &out, q)
	}()
	go func() {
		errs <- runHolder(context.Background(), holder(queryAddr, peerAddr, "", aCSV, "entropy", cliutil.Params{}), "alice")
	}()
	go func() {
		errs <- runHolder(context.Background(), holder(queryAddr, "", peerAddr, bCSV, "entropy", cliutil.Params{}), "bob")
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
	if !strings.Contains(text, "pairs decided") || !strings.Contains(text, "matches:") {
		t.Errorf("query output incomplete: %q", text)
	}
	if !strings.Contains(text, "k=8") {
		t.Errorf("view metadata missing: %q", text)
	}
}

func TestRoleValidation(t *testing.T) {
	if err := runQuery(context.Background(), nil, queryOptions{CLI: cliutil.CLI{Params: cliutil.Params{QIDs: []string{"age"}, Theta: 0.05, Heuristic: "minFirst", KeyBits: 256}}}); err == nil {
		t.Error("query without -listen should fail")
	}
	if err := runQuery(context.Background(), nil, queryOptions{listen: "127.0.0.1:0", CLI: cliutil.CLI{Params: cliutil.Params{QIDs: []string{"age"}, Theta: 0.05, Heuristic: "bogus", KeyBits: 256}}}); err == nil {
		t.Error("bad heuristic should fail")
	}
	if err := runHolder(context.Background(), holder("", "", "", "x.csv", "entropy", cliutil.Params{}), "alice"); err == nil {
		t.Error("holder without -query should fail")
	}
	if err := runHolder(context.Background(), holder("127.0.0.1:1", "", "127.0.0.1:1", "/nonexistent.csv", "entropy", cliutil.Params{}), "bob"); err == nil {
		t.Error("missing data file should fail")
	}
	if err := runHolder(context.Background(), holder("127.0.0.1:1", "", "127.0.0.1:1", "x.csv", "bogus", cliutil.Params{}), "bob"); err == nil {
		t.Error("bad method should fail")
	}
	if err := runWorker(context.Background(), "", "w", 1); err == nil || !strings.Contains(err.Error(), "-coordinator") {
		t.Errorf("worker without -coordinator: %v, want a refusal naming -coordinator", err)
	}
}
