package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pprl/internal/core"
	"pprl/internal/incremental"
)

// dumpCore renders every parameter-derived field of a materialized
// core.Config (the comparator as whether one was installed).
func dumpCore(c core.Config) string {
	alice, bob := "<nil>", "<nil>"
	if c.AliceAnonymizer != nil {
		alice = c.AliceAnonymizer.Name()
	}
	if c.BobAnonymizer != nil {
		bob = c.BobAnonymizer.Name()
	}
	return fmt.Sprintf("core qids=%v theta=%v thresholds=%v k=%d/%d anonymizer=%s/%s heuristic=%s strategy=%v allowance=%d fraction=%v tier=%v[%v] epsilon=%v delta=%v dpseed=%d dplevel=%d secure=%v workers=%d seed=%d",
		c.QIDs, c.Theta, c.Thresholds, c.AliceK, c.BobK, alice, bob, c.Heuristic.Name(), c.Strategy, c.Allowance, c.AllowanceFraction,
		c.Tier, c.TierLow, c.Epsilon, c.DPDelta, c.DPSeed, c.DPLevel, c.Comparator != nil, c.SMCWorkers, c.Seed)
}

// dumpIncremental is dumpCore for the live engine's configuration. θ is
// rendered as the engine reads it: incremental.normalize fills an unset θ
// with the paper's 0.05 (the specs before the shared block left it at 0
// for the engine; the block fills the same 0.05 itself).
func dumpIncremental(c incremental.Config) string {
	theta := c.Theta
	if theta == 0 {
		theta = 0.05
	}
	return fmt.Sprintf("incremental qids=%v theta=%v thresholds=%v level=%d heuristic=%s strategy=%v allowance=%d tier=%v[%v] dedup=%v secure=%v",
		c.QIDs, theta, c.Thresholds, c.Level, c.Heuristic.Name(), c.Strategy, c.Allowance,
		c.Tier, c.TierLow, c.Dedup, c.Comparator != nil)
}

// TestSpecFixturesMaterialize: spec.json and dataset.json files written
// before the specs embedded the shared block — testdata/specs by the
// store of the commit before it (job-restart is the file the restart test
// recovers, the since removed "blocking" and "packing" included), the
// two legacy datasets by older daemons still — decode, validate and
// materialize to what that commit's JobSpec.Config and DatasetSpec.Config
// made of them (a job spec's is now its job's Config); materialized.golden
// is those two functions' output under the dump functions above. The
// embedding must not move a persisted spec's meaning. Each file's "spec"
// object is also a request body of its day: the strict decoder the two POST handlers use must take every key
// the old specs declared, from the embedded block or not, and still
// refuse exactly the keys since removed — blocking, packing and seed, the
// tier_high that went with the tier's Match band (job-full and
// dataset-full persist "tier_high": 0.85; the recovery decode drops the
// key, and materialized.golden lost its second threshold with it — once),
// dp_level and queue_depth. job-dp, job-minimal and dataset-full persist
// DP parameters, which Validate and Config now refuse (ErrNoDP): their
// golden lines say so, and dumpIncremental has no DP columns left.
func TestSpecFixturesMaterialize(t *testing.T) {
	removedKeys := map[string][]string{
		"job-restart/spec.json":                       {"blocking", "packing"},
		"legacy-seed/datasets/ds-000001/dataset.json": {"seed"},
		"job-full/spec.json":                          {"blocking", "tier_high"},
		"job-dp/spec.json":                            {"dp_level"},
		"dataset-full/dataset.json":                   {"queue_depth", "tier_high"},
	}
	refused := map[string]bool{"job-dp/spec.json": true, "job-minimal/spec.json": true, "dataset-full/dataset.json": true}
	// materialize checks a spec's Validate and Config errors and returns
	// what its golden line says in place of a dump, "" when it has one.
	materialize := func(label string, validate, config error) string {
		for _, err := range []error{validate, config} {
			switch {
			case refused[label] && !errors.Is(err, ErrNoDP):
				t.Errorf("%s: err = %v, want ErrNoDP", label, err)
			case !refused[label] && err != nil:
				t.Errorf("%s no longer materializes: %v", label, err)
			}
		}
		if refused[label] {
			return "refused (ErrNoDP)"
		}
		return ""
	}
	// strict decodes the file's "spec" object as a request body, dropping
	// and collecting each key the strict decoder refuses as unknown.
	strict := func(label string, raw []byte, into any) {
		var file struct {
			Spec map[string]json.RawMessage `json:"spec"`
		}
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var unknown []string
		for {
			body, _ := json.Marshal(file.Spec)
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			err := dec.Decode(into)
			if err == nil {
				break
			}
			key, ok := strings.CutPrefix(err.Error(), `json: unknown field "`)
			if !ok {
				t.Errorf("%s as a request body: %v", label, err)
				return
			}
			key = strings.TrimSuffix(key, `"`)
			unknown = append(unknown, key)
			delete(file.Spec, key)
		}
		if slices.Sort(unknown); !slices.Equal(unknown, removedKeys[label]) {
			t.Errorf("%s as a request body: keys %q refused as unknown, want %q", label, unknown, removedKeys[label])
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "specs", "materialized.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, label := range []string{
		"job-full/spec.json", "job-dp/spec.json", "job-minimal/spec.json", "job-restart/spec.json",
		"dataset-full/dataset.json",
		"legacy-state/state/datasets/ds-000001/dataset.json",
		"legacy-seed/datasets/ds-000001/dataset.json",
	} {
		path := filepath.Join("testdata", "specs", label)
		if strings.HasPrefix(label, "legacy-") {
			path = filepath.Join("testdata", label)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var dump string
		if filepath.Base(label) == "spec.json" {
			var sf specFile
			if err := json.Unmarshal(raw, &sf); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			strict(label, raw, new(JobSpec))
			_, qids, err := sf.Spec.LoadSchema(nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var cfg core.Config
			job, err := sf.Spec.job()
			if err == nil {
				cfg, err = job.Config(qids)
			}
			if dump = materialize(label, sf.Spec.Validate(), err); dump == "" {
				dump = dumpCore(cfg)
			}
		} else {
			var df datasetFile
			if err := json.Unmarshal(raw, &df); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			strict(label, raw, new(DatasetSpec))
			_, qids, err := df.Spec.LoadSchema(nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cfg, err := df.Spec.Config(qids)
			if dump = materialize(label, df.Spec.Validate(nil), err); dump == "" {
				dump = dumpIncremental(cfg)
			}
		}
		fmt.Fprintf(&got, "%s: %s\n", label, dump)
	}
	if got.String() != string(want) {
		t.Errorf("materialized configs moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
