package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pprl"
)

// writeData writes two overlapping Adult CSVs into dir.
func writeData(t *testing.T, dir string) {
	t.Helper()
	schema := pprl.AdultSchema()
	full := pprl.GenerateAdult(schema, 100, 17)
	da, db := pprl.SplitOverlap(full, rand.New(rand.NewSource(18)))
	for name, d := range map[string]*pprl.Dataset{"a.csv": da, "b.csv": db} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteCSV(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL plus a stop function that drains it and waits for exit.
func startDaemon(t *testing.T, dir, dataDir string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run(&out, options{
			addr:        "127.0.0.1:0",
			dir:         dir,
			dataDir:     dataDir,
			workers:     2,
			journalSync: 1,
			ctx:         ctx,
			ready:       ready,
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v\n%s", err, out.String())
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never came up")
	}
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon exit: %v\n%s", err, out.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatal("daemon never drained")
		}
	}
	return "http://" + addr, stop
}

// TestServeSmoke boots the daemon, pushes a job through the full HTTP
// lifecycle, drains on the signal path, and restarts on the same state
// directory to confirm the finished job survives.
func TestServeSmoke(t *testing.T) {
	dataDir := t.TempDir()
	writeData(t, dataDir)
	stateDir := filepath.Join(t.TempDir(), "state")

	base, stop := startDaemon(t, stateDir, dataDir)

	id := submitJob(t, base, `{"alice_path":"a.csv","bob_path":"b.csv","k":8,"allowance":200}`)
	waitDone(t, base, id)

	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz returned %d", hz.StatusCode)
	}
	stop()

	// Second life: the state directory still knows the job.
	base2, stop2 := startDaemon(t, stateDir, dataDir)
	defer stop2()
	r, err := http.Get(base2 + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result after restart returned %d: %s", r.StatusCode, raw)
	}
	var res struct {
		Result struct {
			Allowance int64 `json:"allowance"`
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Result.Allowance != 200 {
		t.Errorf("allowance = %d, want 200", res.Result.Allowance)
	}
}
