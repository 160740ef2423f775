package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"pprl/internal/cliutil"
	"pprl/internal/testkit"
)

// TestSurfaceParity pushes the shared parameter table through the two
// API doors: POST /v1/jobs and POST /v1/datasets must each accept and
// refuse exactly what the table says (pprl-link and pprl-party push the
// same rows through their own suites).
func TestSurfaceParity(t *testing.T) {
	_, ts := newTestServer(t, Config{Dir: t.TempDir(), DataDir: writeDataDir(t, 40, 3), Workers: 1})
	// post returns the 400's message as the refusal, nil on a 2xx.
	var unknown string
	post := func(path string, spec any) error {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if unknown != "" { // a key the structs can no longer spell
			body = append([]byte(`{"`+unknown+`":0.95,`), body[1:]...)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ae apiError
		switch {
		case resp.StatusCode < 300:
			return nil
		case resp.StatusCode != http.StatusBadRequest:
			t.Errorf("POST %s %s: status %d, want 2xx or 400", path, body, resp.StatusCode)
		}
		json.NewDecoder(resp.Body).Decode(&ae)
		return errors.New(ae.Error)
	}
	for _, row := range testkit.ParamRows {
		unknown = row.Unknown
		if row.On&testkit.SurfaceJobs != 0 {
			spec := JobSpec{Job: cliutil.Job{AlicePath: "a.csv", BobPath: "b.csv", K: 8, Params: row.Params,
				AllowanceFraction: row.AllowanceFraction, Anonymizer: row.Anonymizer}}
			if msg := row.Judge(testkit.SurfaceJobs, post("/v1/jobs", spec)); msg != "" {
				t.Errorf("POST /v1/jobs: %s", msg)
			}
		}
		if row.On&testkit.SurfaceDatasets != 0 {
			spec := DatasetSpec{Params: row.Params, Level: row.Level}
			if msg := row.Judge(testkit.SurfaceDatasets, post("/v1/datasets", spec)); msg != "" {
				t.Errorf("POST /v1/datasets: %s", msg)
			}
		}
	}
}
