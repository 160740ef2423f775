package testkit

import (
	"fmt"
	"strings"

	"pprl/internal/cliutil"
)

// Surface is one door a parameter block comes through.
type Surface uint

const (
	// SurfaceJobs is POST /v1/jobs.
	SurfaceJobs Surface = 1 << iota
	// SurfaceDatasets is POST /v1/datasets.
	SurfaceDatasets
	// SurfaceLink is pprl-link's two-relation run.
	SurfaceLink
	// SurfaceDedup is pprl-link -dedup.
	SurfaceDedup
	// SurfaceQuery is pprl-party -role query.
	SurfaceQuery

	frozenSurfaces = SurfaceJobs | SurfaceLink
	liveSurfaces   = SurfaceDatasets | SurfaceDedup
	apiSurfaces    = SurfaceJobs | SurfaceDatasets
	allSurfaces    = frozenSurfaces | liveSurfaces | SurfaceQuery
)

// ParamRow is one parameter set and what every surface that takes it must
// say to it. Each surface's own test suite pushes ParamRows through its
// door (TestSurfaceParity in internal/service, cmd/pprl-link and
// cmd/pprl-party), so a rule that exists on one surface and not on
// another fails the row there.
type ParamRow struct {
	Name string
	cliutil.Params
	// AllowanceFraction is allowance_fraction / -allowance; zero leaves
	// the surface's default. Live datasets have no fraction.
	AllowanceFraction float64
	// Anonymizer is anonymizer / -anon, which only the frozen surfaces
	// take; the others ignore it.
	Anonymizer string
	// Level is the binning depth the surface takes: -dp-level on
	// pprl-link's two-relation run, level / -level on the live surfaces.
	Level int
	// Unknown, when set, is the JSON key of a parameter that no longer
	// exists, or that the row's surfaces do not take, pushed beside the
	// block with the value 0.95 (as the key in a request body, as
	// FlagNames(key) on a command line): the surfaces must refuse it as
	// unknown, by name.
	Unknown string
	// On is the surfaces the row is pushed through, Refuse those of them
	// that must refuse it (the rest must accept), and Want a substring of
	// every refusal in either spelling of the field ("" = any text).
	On, Refuse Surface
	Want       string
}

// ParamRows is the surface-parity table.
var ParamRows = []ParamRow{
	{Name: "defaults", On: allSurfaces},
	{Name: "zero theta is the default", Params: cliutil.Params{Theta: 0, Heuristic: "maxLast", Strategy: "recall"}, On: allSurfaces},
	{Name: "negative theta", Params: cliutil.Params{Theta: -1}, On: allSurfaces, Refuse: allSurfaces, Want: "theta must be in (0, ∞)"},
	{Name: "allowance fraction above 1", AllowanceFraction: 1.5, On: allSurfaces &^ SurfaceDatasets, Refuse: allSurfaces, Want: "must be in [0, 1]"},
	{Name: "negative allowance fraction", AllowanceFraction: -0.1, On: allSurfaces &^ SurfaceDatasets, Refuse: allSurfaces, Want: "must be in [0, 1]"},
	{Name: "unknown heuristic", Params: cliutil.Params{Heuristic: "nope"}, On: allSurfaces, Refuse: allSurfaces, Want: "unknown heuristic"},
	{Name: "unknown strategy", Params: cliutil.Params{Strategy: "nope"}, On: allSurfaces, Refuse: allSurfaces, Want: "unknown strategy"},
	// The triage tier runs in one trust domain: a session's querying
	// party has no tier, so its CLKs never cross to it.
	{Name: "unknown tier", Params: cliutil.Params{Tier: "paillier"}, On: allSurfaces &^ SurfaceQuery, Refuse: allSurfaces, Want: "unknown tier mode"},
	{Name: "tier high is gone", Params: cliutil.Params{Tier: "bloom"}, Unknown: "tier_high", On: allSurfaces, Refuse: allSurfaces},
	{Name: "negative tier low", Params: cliutil.Params{Tier: "bloom", TierLow: -0.1}, On: allSurfaces &^ SurfaceQuery, Refuse: allSurfaces, Want: "low must be in [0, 1)"},
	{Name: "tier low of 1", Params: cliutil.Params{Tier: "bloom", TierLow: 1}, On: allSurfaces &^ SurfaceQuery, Refuse: allSurfaces, Want: "low must be in [0, 1)"},
	{Name: "tier threshold", Params: cliutil.Params{Tier: "bloom", TierLow: 0.4}, On: allSurfaces &^ SurfaceQuery},
	{Name: "the query has no tier", Unknown: "tier", On: SurfaceQuery, Refuse: SurfaceQuery},
	{Name: "the query has no tier threshold", Unknown: "tier_low", On: SurfaceQuery, Refuse: SurfaceQuery},
	// pprl-serve refuses DP whole (service.ErrNoDP), so the rows that
	// check DP's own rules run on pprl-link's two-relation run alone.
	{Name: "epsilon with a k-anonymizer", Params: cliutil.Params{Epsilon: 2}, Anonymizer: "tds", On: SurfaceLink, Refuse: SurfaceLink, Want: "epsilon requires"},
	{Name: "dp without epsilon", Anonymizer: "dp", On: SurfaceLink, Refuse: SurfaceLink, Want: "dp requires"},
	{Name: "dp", Params: cliutil.Params{Epsilon: 2, DPDelta: 1e-6, DPSeed: 7}, Anonymizer: "dp", Level: 2, On: frozenSurfaces | SurfaceDatasets, Refuse: apiSurfaces, Want: "pprl-party"},
	{Name: "tier under dp", Params: cliutil.Params{Epsilon: 2, Tier: "bloom"}, Anonymizer: "dp", On: SurfaceLink, Refuse: allSurfaces, Want: "DP blocking"},
	{Name: "negative epsilon", Params: cliutil.Params{Epsilon: -2}, Anonymizer: "dp", On: SurfaceLink, Refuse: allSurfaces, Want: "epsilon must be in (0, ∞)"},
	{Name: "delta without epsilon", Params: cliutil.Params{DPDelta: 1e-6}, On: SurfaceLink, Refuse: allSurfaces, Want: "epsilon must be in (0, ∞)"},
	{Name: "delta out of range", Params: cliutil.Params{Epsilon: 2, DPDelta: 0.7}, Anonymizer: "dp", On: SurfaceLink, Refuse: allSurfaces, Want: "delta must be in [0, 0.5)"},
	{Name: "negative dp level", Params: cliutil.Params{Epsilon: 2}, Anonymizer: "dp", Level: -1, On: SurfaceLink, Refuse: allSurfaces, Want: "level must be ≥ 0"},
	{Name: "dp level without epsilon", Level: 2, On: SurfaceLink, Refuse: allSurfaces, Want: "epsilon must be in (0, ∞)"},
	{Name: "negative level", Level: -1, On: liveSurfaces, Refuse: allSurfaces},
	{Name: "negative key size", Params: cliutil.Params{Secure: true, KeyBits: -1}, On: allSurfaces, Refuse: allSurfaces, Want: "must be at least 64"},
	{Name: "key below the engine's floor", Params: cliutil.Params{Secure: true, KeyBits: 63}, On: allSurfaces, Refuse: allSurfaces, Want: "must be at least 64"},
	{Name: "floor-sized key, not asked for", Params: cliutil.Params{KeyBits: 64}, On: allSurfaces},
	// SMC lanes are core.Link's: the live engine runs one, so its surfaces
	// refuse the knob by their own name, and a session's querying party
	// has no such flag.
	{Name: "smc workers", Params: cliutil.Params{SMCWorkers: 2}, On: allSurfaces &^ SurfaceQuery, Refuse: liveSurfaces, Want: "a two-relation run"},
	{Name: "the query has no smc workers", Unknown: "smc_workers", On: SurfaceQuery, Refuse: SurfaceQuery},
	{Name: "classifier", Params: cliutil.Params{Strategy: "classifier"}, On: allSurfaces, Refuse: liveSurfaces, Want: "needs the full residual population"},
}

// Judge compares what surface s did with the row — refusal is the error
// it refused the parameters with, nil when it accepted them — against the
// table, and describes the disagreement ("" when there is none).
func (r ParamRow) Judge(s Surface, refusal error) string {
	switch refuse := r.Refuse&s != 0; {
	case refuse && refusal == nil:
		return fmt.Sprintf("%s: accepted, want a refusal mentioning %q", r.Name, r.Want)
	case refuse && !strings.Contains(refusal.Error(), r.Want):
		return fmt.Sprintf("%s: refused with %q, want a mention of %q", r.Name, refusal, r.Want)
	case refuse && r.Unknown != "" && !strings.Contains(refusal.Error(), r.Unknown) && !strings.Contains(refusal.Error(), cliutil.FlagNames(r.Unknown)):
		return fmt.Sprintf("%s: refused with %q, want %q named as unknown", r.Name, refusal, r.Unknown)
	case !refuse && refusal != nil:
		return fmt.Sprintf("%s: refused with %q, want it accepted", r.Name, refusal)
	}
	return ""
}
