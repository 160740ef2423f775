package core

import (
	"encoding/json"

	"pprl/internal/blocking"
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
	Stages             metrics.Times       `json:"stages"`
	// Blocking is the blocking step's work, and BlockingMatchedPairs the
	// record pairs it labeled Match.
	Blocking             *blocking.Stats `json:"blocking,omitempty"`
	BlockingMatchedPairs int64           `json:"blocking_matched_pairs"`
	// SMCLatency is the duration of each comparator call of the walk.
	SMCLatency metrics.Histogram `json:"smc_latency"`
}

// Summarize builds the wire form from a Result.
func (r *Result) Summarize() ResultJSON {
	return ResultJSON{
		SingleTrustDomain:    true,
		TotalPairs:           r.Block.TotalPairs(),
		UnknownPairs:         r.Block.UnknownPairs,
		BlockingEfficiency:   r.BlockingEfficiency(),
		MatchedPairs:         r.MatchedPairCount(),
		Allowance:            r.Allowance,
		Invocations:          r.Invocations,
		SMCResolvedPairs:     r.SMCResolvedPairs(),
		SMCBytes:             r.SMCBytes,
		SMCWorkers:           r.SMCWorkers,
		Strategy:             r.cfg.Strategy.String(),
		Heuristic:            r.cfg.Heuristic.Name(),
		Tier:                 r.cfg.Tier.String(),
		TierNonMatched:       r.TierNonMatchedPairs(),
		TierUncertainPairs:   r.TierUncertainPairs,
		DP:                   r.DP,
		Resume:               r.Resume,
		Stages:               r.Stages,
		Blocking:             r.Block.Stats,
		BlockingMatchedPairs: r.Block.MatchedPairs,
		SMCLatency:           r.Latency,
	}
}

// MarshalJSON implements json.Marshaler: a Result marshals as its
// ResultJSON summary.
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Summarize())
}
