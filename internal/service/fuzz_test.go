package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/incremental"
)

// FuzzSpecBodies decodes raw bytes as the two POST handlers do — strictly,
// into a JobSpec and into a DatasetSpec — and holds whatever Validate
// accepts to materializing: a job through Config; a dataset through
// Config and incremental.New, whose engine must then take a one-record
// Append without panicking. A registration is persisted once the handler
// accepts it, so a spec that passes the door and fails after it is one
// no daemon start can recover. Schema references resolve to nothing here,
// so every accepted body runs over the built-in Adult schema.
func FuzzSpecBodies(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "specs", "*", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed specs (err %v)", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var file struct {
			Spec json.RawMessage `json:"spec"`
		}
		if err := json.Unmarshal(raw, &file); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add([]byte(file.Spec))
	}
	noSchemas := func(string) (string, error) { return "", errors.New("no schema files here") }
	f.Fuzz(func(t *testing.T, body []byte) {
		strict := func(into any) bool {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			return dec.Decode(into) == nil
		}
		var job JobSpec
		if strict(&job) && job.Validate() == nil {
			if _, qids, err := job.LoadSchema(noSchemas); err == nil {
				if j, err := job.job(); err != nil {
					t.Errorf("job spec %s validates and its job does not: %v", body, err)
				} else if _, err := j.Config(qids); err != nil {
					t.Errorf("job spec %s validates and does not materialize: %v", body, err)
				}
			}
		}
		var ds DatasetSpec
		if !strict(&ds) || ds.Validate(noSchemas) != nil {
			return
		}
		schema, qids, err := ds.LoadSchema(noSchemas)
		if err != nil {
			t.Fatalf("dataset spec %s validates and its schema does not load: %v", body, err)
		}
		cfg, err := ds.Config(qids)
		if err != nil {
			t.Fatalf("dataset spec %s validates and does not materialize: %v", body, err)
		}
		eng, err := incremental.New(schema, cfg)
		if err != nil {
			t.Fatalf("dataset spec %s validates and its engine refuses it: %v", body, err)
		}
		if _, err := eng.Append(0, adult.GenerateInto(schema, 1, 1).Records()); err != nil {
			t.Fatalf("dataset spec %s: one-record append: %v", body, err)
		}
	})
}
