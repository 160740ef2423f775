package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pprl/internal/core"
	"pprl/internal/dpblock"
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
	return fmt.Sprintf("core qids=%v theta=%v thresholds=%v k=%d/%d anonymizer=%s/%s heuristic=%s strategy=%v allowance=%d fraction=%v tier=%v[%v] epsilon=%v delta=%v dpseed=%d dplevel=%d scale=%d secure=%v workers=%d seed=%d",
		c.QIDs, c.Theta, c.Thresholds, c.AliceK, c.BobK, alice, bob, c.Heuristic.Name(), c.Strategy, c.Allowance, c.AllowanceFraction,
		c.Tier, c.TierLow, c.Epsilon, c.DPDelta, c.DPSeed, c.DPLevel, c.Scale, c.Comparator != nil, c.SMCWorkers, c.Seed)
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
	return fmt.Sprintf("incremental qids=%v theta=%v thresholds=%v level=%d heuristic=%s strategy=%v allowance=%d tier=%v[%v] epsilon=%v delta=%v dpseed=%d dedup=%v scale=%d secure=%v workers=%d",
		c.QIDs, theta, c.Thresholds, c.Level, c.Heuristic.Name(), c.Strategy, c.Allowance,
		c.Tier, c.TierLow, c.Epsilon, c.DPDelta, c.DPSeed, c.Dedup, c.Scale, c.Comparator != nil, c.SMCWorkers)
}

// TestSpecFixturesMaterialize: spec.json and dataset.json files written
// before the specs embedded the shared block — testdata/specs by the
// store of the commit before it (job-restart is the file the restart test
// recovers, deprecated "blocking" and unknown "packing" included), the
// two legacy datasets by older daemons still — decode, validate and
// materialize to what that commit's JobSpec.Config and DatasetSpec.Config
// made of them; materialized.golden is those two functions' output under
// the dump functions above. The embedding must not move a persisted
// spec's meaning. Each file's "spec" object is also a request body of its
// day: the strict decoder the two POST handlers use must take every key
// the old specs declared, from the embedded block or not, and still
// refuse the two keys PR 25 removed and the tier_high that went with the
// tier's Match band (job-full and dataset-full persist "tier_high": 0.85;
// the recovery decode drops the key, and materialized.golden lost its
// second threshold with it — once). dataset-full also persists ε with the
// tier on, which Validate now refuses (dpblock.ErrTierUnderDP); it still
// materializes as it did.
func TestSpecFixturesMaterialize(t *testing.T) {
	removedKey := map[string]string{
		"job-restart/spec.json":                       "packing",
		"legacy-seed/datasets/ds-000001/dataset.json": "seed",
		"job-full/spec.json":                          "tier_high",
		"dataset-full/dataset.json":                   "tier_high",
	}
	refusedBy := map[string]error{
		"dataset-full/dataset.json": dpblock.ErrTierUnderDP,
	}
	validate := func(label string, err error) {
		if want := refusedBy[label]; want != nil {
			if !errors.Is(err, want) {
				t.Errorf("%s validates with err = %v, want %q", label, err, want)
			}
		} else if err != nil {
			t.Errorf("%s no longer validates: %v", label, err)
		}
	}
	strict := func(label string, raw []byte, into any) {
		var file struct {
			Spec json.RawMessage `json:"spec"`
		}
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		dec := json.NewDecoder(bytes.NewReader(file.Spec))
		dec.DisallowUnknownFields()
		err := dec.Decode(into)
		if key := removedKey[label]; key != "" {
			if err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
				t.Errorf("%s as a request body: err = %v, want %q refused as unknown", label, err, key)
			}
		} else if err != nil {
			t.Errorf("%s as a request body: %v", label, err)
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
			validate(label, sf.Spec.Validate())
			_, qids, err := sf.Spec.LoadSchema(nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cfg, err := sf.Spec.Config(qids)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			dump = dumpCore(cfg)
		} else {
			var df datasetFile
			if err := json.Unmarshal(raw, &df); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			strict(label, raw, new(DatasetSpec))
			validate(label, df.Spec.Validate())
			_, qids, err := df.Spec.LoadSchema(nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cfg, err := df.Spec.Config(qids)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			dump = dumpIncremental(cfg)
		}
		fmt.Fprintf(&got, "%s: %s\n", label, dump)
	}
	if got.String() != string(want) {
		t.Errorf("materialized configs moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
