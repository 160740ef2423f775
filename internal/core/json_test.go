package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"pprl/internal/metrics"
)

// TestResultMarshalJSON: a real run's Result marshals into the stable
// wire form, and unmarshaling it back into ResultJSON reproduces the
// accessor values exactly.
func TestResultMarshalJSON(t *testing.T) {
	alice, bob := workload(t, 300, 77)
	cfg := DefaultConfig(alice.Schema().Names())
	cfg.AliceK, cfg.BobK = 8, 8
	cfg.Allowance = 150
	res, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"single_trust_domain", "total_pairs", "unknown_pairs", "blocking_efficiency", "matched_pairs",
		"allowance", "invocations", "smc_resolved_pairs", "smc_bytes",
		"smc_workers", "strategy", "heuristic", "resume", "stages",
	} {
		if !strings.Contains(string(data), `"`+field+`"`) {
			t.Errorf("wire form missing %q: %s", field, data)
		}
	}

	var got ResultJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := res.Summarize()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the summary:\n got %+v\nwant %+v", got, want)
	}
	if got.MatchedPairs != res.MatchedPairCount() || got.Invocations != res.Invocations {
		t.Errorf("summary disagrees with accessors: %+v", got)
	}
	if got.Strategy != "maximize-precision" || got.Heuristic != "minAvgFirst" {
		t.Errorf("strategy/heuristic names = %q/%q", got.Strategy, got.Heuristic)
	}
	if !got.SingleTrustDomain {
		t.Error("a core.Link result does not say it ran in one trust domain")
	}
}

// TestTimingsJSONRoundTrip: a result's stage times survive the wire form
// exactly, as integer nanoseconds under each stage's name, in order.
func TestTimingsJSONRoundTrip(t *testing.T) {
	in := ResultJSON{Stages: metrics.Times{
		{Name: "anonymize-alice", Time: 1500 * time.Microsecond},
		{Name: "blocking", Time: 3 * time.Millisecond},
		{Name: "smc", Time: 7 * time.Nanosecond},
	}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `"stages":[{"stage":"anonymize-alice","ns":1500000},{"stage":"blocking","ns":3000000},{"stage":"smc","ns":7}]`
	if !strings.Contains(string(data), want) {
		t.Errorf("wire form = %s, want it to hold %s", data, want)
	}
	var out ResultJSON
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Stages, in.Stages) {
		t.Errorf("round trip changed the stages: %v -> %v", in.Stages, out.Stages)
	}
}

// TestResultJSONCarriesResumeStats: a resumed run's wire form reports
// the replayed allowance under the metrics package's stable names.
func TestResultJSONCarriesResumeStats(t *testing.T) {
	r := ResultJSON{Resume: metrics.ResumeStats{ResumedPairs: 9, ReplayedAllowance: 9}}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"resumed_pairs":9`) || !strings.Contains(string(data), `"replayed_allowance":9`) {
		t.Errorf("resume stats not inlined: %s", data)
	}
}
