package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pprl/internal/cliutil"
	"pprl/internal/service"
	"pprl/internal/testkit"
)

// TestSurfaceParity pushes the shared parameter table through run and
// runDedup. The input files do not exist, so parameters the flags accept
// surface as the file's not-found error and everything else is a refusal
// made before any file was opened.
func TestSurfaceParity(t *testing.T) {
	refusal := func(err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err == nil {
			t.Fatal("run succeeded without input files")
		}
		return err
	}
	for _, row := range testkit.ParamRows {
		if row.Unknown != "" {
			// A flag that no longer exists never reaches run: both arms
			// share one command line, which refuses it at parse time.
			for _, s := range []struct {
				surface testkit.Surface
				args    []string
			}{{testkit.SurfaceLink, []string{"-a", "a.csv", "-b", "b.csv"}}, {testkit.SurfaceDedup, []string{"-a", "a.csv", "-dedup"}}} {
				if row.On&s.surface == 0 {
					continue
				}
				var opts options
				fs := flag.NewFlagSet("pprl-link", flag.ContinueOnError)
				fs.SetOutput(io.Discard)
				opts.register(fs)
				err := fs.Parse(append(s.args, cliutil.FlagNames(row.Unknown), "0.95"))
				if msg := row.Judge(s.surface, err); msg != "" {
					t.Errorf("pprl-link %v: %s", s.args, msg)
				}
			}
			continue
		}
		cli := cliutil.CLI{Params: row.Params, K: 8, AllowanceFraction: row.AllowanceFraction}
		if row.On&testkit.SurfaceLink != 0 {
			cli.DPLevel = row.Level
			opts := options{CLI: cli, aPath: "/nonexistent-a.csv", bPath: "/nonexistent-b.csv", anonName: row.Anonymizer}
			if msg := row.Judge(testkit.SurfaceLink, refusal(run(nil, opts))); msg != "" {
				t.Errorf("pprl-link: %s", msg)
			}
		}
		if row.On&testkit.SurfaceDedup != 0 {
			cli.DPLevel = 0
			opts := options{CLI: cli, aPath: "/nonexistent-a.csv", dedup: true, level: row.Level}
			if msg := row.Judge(testkit.SurfaceDedup, refusal(run(nil, opts))); msg != "" {
				t.Errorf("pprl-link -dedup: %s", msg)
			}
		}
	}
}

// TestRunLinkSmallKeyRefusedFirst: a key below the engine's floor is a
// usage error — no input is read and no journal is left behind (the
// parent read both files, anonymized, blocked and wrote the journal's
// manifest before paillier refused the key).
func TestRunLinkSmallKeyRefusedFirst(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "j.wal")
	for _, dedup := range []bool{false, true} {
		opts := baseOpts("/nonexistent-a.csv", "/nonexistent-b.csv")
		if opts.dedup = dedup; dedup {
			opts.bPath = ""
		}
		opts.Secure, opts.KeyBits, opts.Journal = true, 32, wal
		err := run(nil, opts)
		if err == nil || errors.Is(err, fs.ErrNotExist) {
			t.Errorf("dedup=%v: err = %v, want the -keybits refusal before -a is opened", dedup, err)
		}
		if _, statErr := os.Stat(wal); !errors.Is(statErr, fs.ErrNotExist) {
			t.Errorf("dedup=%v: the refused run left a journal behind (stat: %v)", dedup, statErr)
		}
	}
}

// TestRunLinkDedupRefusesDPFlags: the DP flags -dedup cannot honour are
// usage errors, not silently ignored.
func TestRunLinkDedupRefusesDPFlags(t *testing.T) {
	for flag, set := range map[string]func(*options){
		"-dp-delta": func(o *options) { o.DPDelta = 1e-6 },
		"-dp-seed":  func(o *options) { o.DPSeed = 7 },
		"-dp-level": func(o *options) { o.DPLevel = 2 },
	} {
		opts := baseOpts("/nonexistent-a.csv", "")
		opts.dedup = true
		set(&opts)
		if err := run(nil, opts); err == nil || err.Error() != flag+" applies only to -anon dp, not -dedup" {
			t.Errorf("-dedup %s: err = %v, want the usage error", flag, err)
		}
	}
}

// TestRunLinkDedupRefusesK: -dedup bins at a fixed -level, so -k on its
// command line is a usage error. k defaults to 32, so main records that
// the flag was given (kSet); without it, K is not looked at.
func TestRunLinkDedupRefusesK(t *testing.T) {
	opts := baseOpts("/nonexistent-a.csv", "")
	opts.dedup, opts.kSet = true, true
	if err := run(nil, opts); err == nil || !strings.Contains(err.Error(), "-k, -anon and -epsilon do not apply") {
		t.Errorf("-dedup -k: err = %v, want the usage error", err)
	}
	opts.kSet = false
	if err := run(nil, opts); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("-dedup without -k: err = %v, want -a's not-found error", err)
	}
}

// TestRunLinkZeroKRefusedFirst: -k below 1 is a usage error made before
// either relation is read or the journal exists (the parent read both
// files and left a header-only journal before core refused k).
func TestRunLinkZeroKRefusedFirst(t *testing.T) {
	a, b := writePair(t)
	wal := filepath.Join(t.TempDir(), "k0.wal")
	for _, k := range []int{0, -1} {
		opts := baseOpts(a, b)
		opts.K, opts.Journal = k, wal
		if err := run(nil, opts); err == nil || !strings.Contains(err.Error(), "-k must be ≥ 1") {
			t.Errorf("-k %d: err = %v, want the -k refusal", k, err)
		}
		if _, err := os.Stat(wal); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("-k %d: the refused run left a journal behind (stat: %v)", k, err)
		}
	}
}

// TestDoorsAgree pushes the same two relations and parameters through
// pprl-link -json -eval and through POST /v1/jobs with "evaluate": true:
// what pprl-link prints and what GET /v1/jobs/{id}/result serves must be
// one document, stage timings and call latencies aside.
func TestDoorsAgree(t *testing.T) {
	a, b := writePair(t)
	flags := flag.NewFlagSet("pprl-link", flag.ContinueOnError)
	var opts options
	opts.register(flags)
	if err := flags.Parse([]string{"-a", a, "-b", b, "-k", "8", "-allowance", "0.05", "-heuristic", "maxLast", "-tier", "bloom", "-json", "-eval"}); err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := run(&cli, opts); err != nil {
		t.Fatal(err)
	}

	srv, err := service.New(service.Config{Dir: t.TempDir(), DataDir: filepath.Dir(a), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer srv.Drain()
	defer ts.Close()
	body := `{"alice_path":"a.csv","bob_path":"b.csv","k":8,"allowance_fraction":0.05,"heuristic":"maxLast","tier":"bloom","evaluate":true}`
	var st service.JobStatus
	if code := call(t, http.MethodPost, ts.URL+"/v1/jobs", body, &st); code != http.StatusCreated {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}
	for deadline := time.Now().Add(time.Minute); st.State != service.StateDone; time.Sleep(10 * time.Millisecond) {
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s (%s)", st.ID, st.State, st.Error)
		}
		call(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, "", &st)
	}
	var api map[string]any
	if code := call(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", "", &api); code != http.StatusOK {
		t.Fatalf("GET result: status %d", code)
	}

	var link map[string]any
	if err := json.Unmarshal(cli.Bytes(), &link); err != nil {
		t.Fatalf("pprl-link -json: %v\n%s", err, cli.String())
	}
	for _, doc := range []map[string]any{link, api} {
		delete(doc["result"].(map[string]any), "stages")
		delete(doc["result"].(map[string]any), "smc_latency")
	}
	if !reflect.DeepEqual(link, api) {
		t.Errorf("the doors disagree:\npprl-link -json: %v\nGET result:      %v", link, api)
	}
	if matches, _ := link["matches"].([]any); len(matches) == 0 || link["evaluation"] == nil {
		t.Errorf("the compared documents hold no matches or no evaluation: %v", link)
	}
}

// call sends one request and decodes the JSON reply into into, returning
// the status code.
func call(t *testing.T, method, url, body string, into any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp.StatusCode
}
