package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pprl/internal/core"
)

// TestServiceDPJob: a DP job stored by an older build is never run. One
// that finished still serves its result.json as written; one in flight
// fails at execution by the API's refusal, and stays failed at the next
// start.
func TestServiceDPJob(t *testing.T) {
	dataDir := writeDataDir(t, 40, 11)
	root := t.TempDir()
	store, err := NewStore(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	spec.Anonymizer, spec.Epsilon, spec.DPSeed = "dp", 8, 3
	for range 2 {
		if _, err := register(store, jobKind, func(id string, seq int) specFile {
			return specFile{ID: id, Seq: seq, SubmittedAt: time.Now().UTC(), Spec: spec}
		}); err != nil {
			t.Fatal(err)
		}
	}
	done := &JobResult{Result: core.ResultJSON{Invocations: 7, DP: &core.DPStats{TotalEpsilon: 16}}, Matches: [][2]int{{1, 2}}}
	if err := store.WriteResult("job-000001", done); err != nil {
		t.Fatal(err)
	}
	for life := 0; life < 2; life++ {
		s, err := New(Config{Dir: root, DataDir: dataDir, Workers: 1})
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		ts := httptest.NewServer(s.Handler())
		if got := getResult(t, ts, "job-000001"); !reflect.DeepEqual(&got, done) {
			t.Errorf("life %d: the finished DP job serves %+v, it stored %+v", life, got, done)
		}
		st := waitState(t, ts, "job-000002", StateFailed)
		if !strings.Contains(st.Error, ErrNoDP.Error()) {
			t.Errorf("life %d: the in-flight DP job failed with %q, want the API's refusal", life, st.Error)
		}
		ts.Close()
		s.Drain()
	}
}

// TestServiceDPSpecValidation: both API bodies refuse every DP key with
// HTTP 400 and register nothing — ε, δ and the seed by the one refusal,
// which names pprl-party; the dp anonymizer on a job by it too; dp_level,
// and the anonymizer on a dataset, as keys the body does not have.
func TestServiceDPSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Dir: t.TempDir(), DataDir: writeDataDir(t, 40, 11), Workers: 1})
	for _, tc := range []struct{ field, job, dataset string }{
		{`"epsilon":2`, "pprl-party", "pprl-party"},
		{`"dp_delta":0.00001`, "pprl-party", "pprl-party"},
		{`"dp_seed":7`, "pprl-party", "pprl-party"},
		{`"anonymizer":"dp"`, "pprl-party", `unknown field "anonymizer"`},
		{`"dp_level":2`, `unknown field "dp_level"`, `unknown field "dp_level"`},
	} {
		for _, post := range []struct{ path, body, want string }{
			{"/v1/jobs", `{"alice_path":"a.csv","bob_path":"b.csv",` + tc.field + `}`, tc.job},
			{"/v1/datasets", `{` + tc.field + `}`, tc.dataset},
		} {
			resp, err := http.Post(ts.URL+post.path, "application/json", strings.NewReader(post.body))
			if err != nil {
				t.Fatal(err)
			}
			var ae apiError
			json.NewDecoder(resp.Body).Decode(&ae)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(ae.Error, post.want) {
				t.Errorf("POST %s %s: HTTP %d %q, want 400 mentioning %q", post.path, post.body, resp.StatusCode, ae.Error, post.want)
			}
		}
	}
	for _, path := range []string{"/v1/jobs", "/v1/datasets"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		raw.ReadFrom(resp.Body)
		resp.Body.Close()
		if strings.Contains(raw.String(), `"id"`) {
			t.Errorf("GET %s after the refusals: %s", path, raw.String())
		}
	}
}
