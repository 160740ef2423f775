package core

import (
	"encoding/json"
	"time"

	"pprl/internal/metrics"
)

// ResultJSON is the stable wire form of a linkage Result, served by the
// job service's result endpoint and pprl-link's -json mode. It is a
// summary view: the full pair labeling is queried via PairMatched (or
// enumerated by the caller), not shipped.
//
// SingleTrustDomain is always true: core.Link holds both relations in one
// process, so its SMC and DP padding protect no one there and are a cost
// model of a run across real boundaries (pprl-party), not privacy.
type ResultJSON struct {
	SingleTrustDomain  bool                `json:"single_trust_domain"`
	TotalPairs         int64               `json:"total_pairs"`
	UnknownPairs       int64               `json:"unknown_pairs"`
	BlockingEfficiency float64             `json:"blocking_efficiency"`
	MatchedPairs       int64               `json:"matched_pairs"`
	Allowance          int64               `json:"allowance"`
	Invocations        int64               `json:"invocations"`
	SMCResolvedPairs   int64               `json:"smc_resolved_pairs"`
	SMCBytes           int64               `json:"smc_bytes"`
	SMCWorkers         int                 `json:"smc_workers"`
	Strategy           string              `json:"strategy"`
	Heuristic          string              `json:"heuristic"`
	Tier               string              `json:"tier"`
	TierNonMatched     int64               `json:"tier_nonmatched_pairs"`
	TierUncertainPairs int64               `json:"tier_uncertain_pairs"`
	DP                 *DPStats            `json:"dp,omitempty"`
	Resume             metrics.ResumeStats `json:"resume"`
	Timings            Timings             `json:"timings"`
}

// Summarize builds the wire form from a Result.
func (r *Result) Summarize() ResultJSON {
	return ResultJSON{
		SingleTrustDomain:  true,
		TotalPairs:         r.Block.TotalPairs(),
		UnknownPairs:       r.Block.UnknownPairs,
		BlockingEfficiency: r.BlockingEfficiency(),
		MatchedPairs:       r.MatchedPairCount(),
		Allowance:          r.Allowance,
		Invocations:        r.Invocations,
		SMCResolvedPairs:   r.SMCResolvedPairs(),
		SMCBytes:           r.SMCBytes,
		SMCWorkers:         r.SMCWorkers,
		Strategy:           r.cfg.Strategy.String(),
		Heuristic:          r.cfg.Heuristic.Name(),
		Tier:               r.cfg.Tier.String(),
		TierNonMatched:     r.TierNonMatchedPairs(),
		TierUncertainPairs: r.TierUncertainPairs,
		DP:                 r.DP,
		Resume:             r.Resume,
		Timings:            r.Timings,
	}
}

// MarshalJSON implements json.Marshaler: a Result marshals as its
// ResultJSON summary.
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Summarize())
}

// timingsJSON is Timings' wire form; durations travel as integer
// nanoseconds (time.Duration's native representation) under explicit
// names so consumers never guess the unit.
type timingsJSON struct {
	AnonymizeAliceNS int64 `json:"anonymize_alice_ns"`
	AnonymizeBobNS   int64 `json:"anonymize_bob_ns"`
	DPNoiseNS        int64 `json:"dp_noise_ns"`
	BlockingNS       int64 `json:"blocking_ns"`
	TierNS           int64 `json:"tier_ns"`
	SMCNS            int64 `json:"smc_ns"`
}

// MarshalJSON implements json.Marshaler with stable field names.
func (t Timings) MarshalJSON() ([]byte, error) {
	return json.Marshal(timingsJSON{
		AnonymizeAliceNS: int64(t.AnonymizeAlice),
		AnonymizeBobNS:   int64(t.AnonymizeBob),
		DPNoiseNS:        int64(t.DPNoise),
		BlockingNS:       int64(t.Blocking),
		TierNS:           int64(t.Tier),
		SMCNS:            int64(t.SMC),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Timings) UnmarshalJSON(data []byte) error {
	var w timingsJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	t.AnonymizeAlice = time.Duration(w.AnonymizeAliceNS)
	t.AnonymizeBob = time.Duration(w.AnonymizeBobNS)
	t.DPNoise = time.Duration(w.DPNoiseNS)
	t.Blocking = time.Duration(w.BlockingNS)
	t.Tier = time.Duration(w.TierNS)
	t.SMC = time.Duration(w.SMCNS)
	return nil
}
