package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestBinaryFleet runs README's fleet quickstart from built binaries: a
// pprl-serve daemon with -fleet-listen, two pprl-party workers that dial
// it with -coordinator, and one secure "distributed": true job whose
// matches must equal the same spec run in the daemon's own process. The
// removed dial-out flag is a usage error.
func TestBinaryFleet(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+"/", ".", "../pprl-party").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	serve, party := filepath.Join(bin, "pprl-serve"), filepath.Join(bin, "pprl-party")

	out, err := exec.Command(serve, "-worker", "127.0.0.1:1").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-worker") {
		t.Errorf("pprl-serve -worker: %v, want exit 2 naming the flag; output:\n%s", err, out)
	}

	dataDir := t.TempDir()
	writeData(t, dataDir)
	daemon := newCmd(t, serve, "-listen", "127.0.0.1:0", "-fleet-listen", "127.0.0.1:0", "-fleet-min-workers", "2",
		"-dir", filepath.Join(t.TempDir(), "state"), "-data", dataDir)
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	var fleetAddr, base string
	logs := bufio.NewScanner(stderr)
	bound := regexp.MustCompile(`(accepting worker registrations|serving) on (\S+)`)
	for base == "" && logs.Scan() {
		if m := bound.FindStringSubmatch(logs.Text()); m != nil && m[1] == "serving" {
			base = "http://" + m[2]
		} else if m != nil {
			fleetAddr = m[2]
		}
	}
	if fleetAddr == "" || base == "" {
		t.Fatalf("daemon log never named both addresses (fleet %q, http %q): %v", fleetAddr, base, logs.Err())
	}
	go func() { // keep the daemon's log pipe drained
		for logs.Scan() {
		}
	}()

	var workers []*exec.Cmd
	for _, name := range []string{"fw1", "fw2"} {
		w := newCmd(t, party, "-role", "worker", "-coordinator", fleetAddr, "-worker-name", name)
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}

	const spec = `"alice_path":"a.csv","bob_path":"b.csv","k":8,"allowance":200,"secure":true,"key_bits":256`
	local := waitDone(t, base, submitJob(t, base, `{`+spec+`}`))
	fleet := waitDone(t, base, submitJob(t, base, `{`+spec+`,"distributed":true}`))
	if len(local) == 0 || !reflect.DeepEqual(fleet, local) {
		t.Errorf("fleet matches %v, in-process matches %v", fleet, local)
	}

	// SIGTERM drains the daemon; its workers exit on the hangup.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for _, c := range append(workers, daemon) {
		done := make(chan error, 1)
		go func() { done <- c.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", c.Args[0], err)
			}
		case <-time.After(30 * time.Second):
			t.Errorf("%s outlived the daemon's drain by 30 s", c.Args[0])
		}
	}
}

// newCmd prepares a command the test kills at cleanup if it is still up.
func newCmd(t *testing.T, bin string, args ...string) *exec.Cmd {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return exec.CommandContext(ctx, bin, args...)
}

// submitJob posts a job body and returns the new job's id.
func submitJob(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit returned %d: %v", resp.StatusCode, err)
	}
	return st.ID
}

// waitDone polls a job until it is done and returns its matches.
func waitDone(t *testing.T, base, id string) [][2]int {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		getJSON(t, base+"/v1/jobs/"+id, &st)
		switch {
		case st.State == "done":
			var res struct {
				Matches [][2]int `json:"matches"`
			}
			getJSON(t, base+"/v1/jobs/"+id+"/result", &res)
			return res.Matches
		case st.State == "failed" || st.State == "canceled" || time.Now().After(deadline):
			t.Fatalf("job %s is %q (%s)", id, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
