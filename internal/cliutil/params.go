package cliutil

import (
	"cmp"
	"fmt"
	"strings"

	"pprl/internal/adult"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/distrib"
	"pprl/internal/dpblock"
	"pprl/internal/incremental"
	"pprl/internal/paillier"
	"pprl/internal/session"
)

// DefaultKeyBits is the Paillier key size a zero KeyBits selects (the
// paper's 1024 bits). The other zero-means-default values are
// core.DefaultConfig's: θ 0.05, k 32, allowance 1.5 %.
const DefaultKeyBits = 1024

// Params is the paper's run as every surface spells it — the decision
// rule (QIDs, θ), the purchase policy (allowance, heuristic, residual
// strategy), the privacy and triage modes (ε/δ/seed, tier threshold) and the
// comparator (secure, key size, lanes). POST /v1/jobs (through Job) and
// POST /v1/datasets embed it (encoding/json inlines an embedded struct, so
// the keys below are the request bodies' and the persisted specs' own), and
// pprl-link, its -dedup arm and pprl-party fill it from the flags CLI
// registers. A zero field selects its default on every surface; Validate
// is the one copy of each range and name rule, and Core, Incremental and
// Query turn an accepted block into the three engines' configurations.
type Params struct {
	// SchemaPath references a schema manifest; empty selects the
	// built-in Adult schema.
	SchemaPath string `json:"schema_path,omitempty"`
	// QIDs are the quasi-identifier attributes; empty selects the paper's
	// default Adult set, or every attribute of a custom schema.
	QIDs []string `json:"qids,omitempty"`
	// Theta is the uniform matching threshold (default 0.05).
	Theta float64 `json:"theta,omitempty"`
	// Allowance is the absolute SMC budget in record pairs. Zero defers
	// to the surface's allowance fraction where it has one (a fraction
	// needs a fixed pair matrix); on a live dataset, whose matrix grows
	// forever, zero means unlimited.
	Allowance int64 `json:"allowance,omitempty"`
	// Heuristic and Strategy take the names HeuristicByName and
	// StrategyByName resolve; empty selects the paper's minAvgFirst and
	// maximize-precision.
	Heuristic string `json:"heuristic,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	// Epsilon, when positive, switches blocking to differentially private
	// bin releases with that per-holder budget. DPDelta is the truncation
	// mass (0 = dpblock's default) and DPSeed the deterministic noise
	// seed; either without Epsilon is refused, and so is Epsilon with the
	// tier on (dpblock.ErrTierUnderDP).
	Epsilon float64 `json:"epsilon,omitempty"`
	DPDelta float64 `json:"dp_delta,omitempty"`
	DPSeed  int64   `json:"dp_seed,omitempty"`
	// Tier selects the triage tier between blocking and SMC: "off"
	// (default) or "bloom". TierLow is its Dice threshold — an Unknown
	// pair at or below it is labeled NonMatch for free; zero selects the
	// engine's default (0.90).
	Tier    string  `json:"tier,omitempty"`
	TierLow float64 `json:"tier_low,omitempty"`
	// Secure runs the real Paillier protocol with KeyBits keys (default
	// DefaultKeyBits); false uses the plaintext cost-model oracle. A
	// pprl-party session is always secure.
	Secure  bool `json:"secure,omitempty"`
	KeyBits int  `json:"key_bits,omitempty"`
	// SMCWorkers is the number of SMC protocol lanes of a two-relation
	// run, core.Link's (0 = GOMAXPROCS). The live engine runs one lane and
	// refuses it (OneLane); a session's querying party has no such flag.
	SMCWorkers int `json:"smc_workers,omitempty"`
}

// Names renders a parameter's JSON key the way a surface spells it in a
// refusal.
type Names func(key string) string

// JSONNames is the API's spelling: the key itself.
func JSONNames(key string) string { return key }

// FlagNames is the command line's spelling: "-dp-delta" for "dp_delta".
func FlagNames(key string) string {
	if flag, ok := flagSpellings[key]; ok {
		return flag
	}
	return "-" + strings.ReplaceAll(key, "_", "-")
}

// flagSpellings are the flags not spelled after their key.
var flagSpellings = map[string]string{"key_bits": "-keybits", "schema_path": "-schema",
	"alice_path": "-a", "bob_path": "-b", "allowance_fraction": "-allowance", "anonymizer": "-anon"}

// Validate refuses a block no engine could run, before anything is
// opened, queued or bound.
func (p *Params) Validate(n Names) error {
	if p.KeyBits != 0 && p.KeyBits < paillier.MinKeyBits {
		return fmt.Errorf("%s must be at least %d (or 0 for the default %d), got %d",
			n("key_bits"), paillier.MinKeyBits, DefaultKeyBits, p.KeyBits)
	}
	if p.Theta != 0 {
		if err := ThetaRange.Named(n("theta")).Validate(p.Theta); err != nil {
			return err
		}
	}
	if p.Allowance < 0 {
		return fmt.Errorf("negative parameters are invalid")
	}
	if _, err := p.Core(nil); err != nil { // the heuristic, strategy and tier names resolve
		return err
	}
	if err := p.ValidateDP(n); err != nil {
		return err
	}
	if tier, _ := TierModeByName(p.Tier); tier != core.TierOff && p.Epsilon != 0 {
		return fmt.Errorf("%s %s excludes %s: %w", n("tier"), p.Tier, n("epsilon"), dpblock.ErrTierUnderDP)
	}
	return TierLowRange.Named(n("tier_low")).Validate(p.TierLow)
}

// ValidateDP refuses ε or δ out of range, and δ or the seed without ε:
// the part of Validate a data holder, which sets nothing else, runs.
func (p *Params) ValidateDP(n Names) error {
	if p.Epsilon == 0 && p.DPDelta == 0 && p.DPSeed == 0 {
		return nil
	}
	if err := EpsilonRange.Named(n("epsilon")).Validate(p.Epsilon); err != nil {
		return err
	}
	return DeltaRange.Named(n("dp_delta")).Validate(p.DPDelta)
}

// OneLane refuses SMCWorkers on a surface whose engine runs one protocol
// lane: a live dataset and pprl-link -dedup.
func (p *Params) OneLane(n Names) error {
	if p.SMCWorkers != 0 {
		return fmt.Errorf("%s sets the SMC lanes of a two-relation run (pprl-link, POST /v1/jobs); this engine runs one lane", n("smc_workers"))
	}
	return nil
}

// ValidateAnonymizer checks the anonymization method a surface that
// anonymizes takes beside the block — key is how the surface spells that
// field, and an empty name selects entropy — and the method's agreement
// with ε: "dp" needs ε, and a k-anonymizer excludes it.
func (p *Params) ValidateAnonymizer(n Names, key, name string) error {
	switch dp := IsDPName(name); {
	case dp && p.Epsilon == 0:
		return fmt.Errorf("%s dp requires %s", key, n("epsilon"))
	case !dp && p.Epsilon != 0:
		return fmt.Errorf("%s requires %s dp, got %s %q", n("epsilon"), key, key, cmp.Or(name, "entropy"))
	case !dp:
		_, err := AnonymizerByName(name)
		return err
	}
	return nil
}

// ValidateDPLevel refuses a negative DP binning depth, and a depth set
// without ε.
func (p *Params) ValidateDPLevel(n Names, level int) error {
	if level < 0 {
		return fmt.Errorf("%s must be ≥ 0, got %d", n("dp_level"), level)
	}
	if level != 0 {
		return EpsilonRange.Named(n("epsilon")).Validate(p.Epsilon)
	}
	return nil
}

// LoadSchema loads the block's schema and settles its QIDs. resolve, when
// set, maps a client-supplied schema reference to a path the server may
// open.
func (p *Params) LoadSchema(resolve func(ref string) (string, error)) (*dataset.Schema, []string, error) {
	path := p.SchemaPath
	if path != "" && resolve != nil {
		var err error
		if path, err = resolve(path); err != nil {
			return nil, nil, err
		}
	}
	schema, err := LoadSchemaOrAdult(path)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case len(p.QIDs) > 0:
		return schema, p.QIDs, nil
	case p.SchemaPath == "":
		return schema, adult.DefaultQIDs(), nil
	default:
		return schema, schema.Names(), nil
	}
}

// keyBits is KeyBits with its default filled.
func (p *Params) keyBits() int {
	if p.KeyBits == 0 {
		return DefaultKeyBits
	}
	return p.KeyBits
}

// FleetJob is the block's comparator choice as an SMC worker fleet takes
// it, for the surfaces that can stripe a run across one.
func (p *Params) FleetJob(job string) distrib.JobConfig {
	jc := distrib.JobConfig{Job: job}
	if p.Secure {
		jc.Engine = distrib.EngineSecure
		jc.KeyBits = p.keyBits()
	}
	return jc
}

// Core materializes the block over core.DefaultConfig for a frozen
// two-relation run; Job.Config adds the holders' k and anonymizers and the
// allowance fraction.
func (p *Params) Core(qids []string) (core.Config, error) {
	cfg := core.DefaultConfig(qids)
	if p.Theta > 0 {
		cfg.Theta = p.Theta
	}
	cfg.Allowance = p.Allowance
	cfg.Epsilon, cfg.DPDelta, cfg.DPSeed = p.Epsilon, p.DPDelta, p.DPSeed
	cfg.TierLow = p.TierLow
	cfg.SMCWorkers = p.SMCWorkers
	if p.Secure {
		cfg.Comparator = core.SecureComparatorFactory(p.keyBits())
	}
	var err error
	if cfg.Heuristic, err = HeuristicByName(p.Heuristic); err != nil {
		return cfg, err
	}
	if cfg.Strategy, err = StrategyByName(p.Strategy); err != nil {
		return cfg, err
	}
	cfg.Tier, err = TierModeByName(p.Tier)
	return cfg, err
}

// Incremental materializes the block for a live (or -dedup) engine, which
// cannot train a classifier and has no DP mode: ε, δ and the seed are not
// carried over, so a surface that takes them refuses them first. The
// binning level, the dedup switch and the journal are the caller's.
func (p *Params) Incremental(qids []string) (incremental.Config, error) {
	c, err := p.Core(qids) // the named choices, resolved in one place
	if err == nil && c.Strategy == core.TrainClassifier {
		err = fmt.Errorf("strategy %q needs the full residual population and cannot run incrementally", p.Strategy)
	}
	cfg := incremental.Config{
		QIDs:       qids,
		Theta:      c.Theta,
		Allowance:  p.Allowance,
		Heuristic:  c.Heuristic,
		Strategy:   c.Strategy,
		Tier:       c.Tier,
		TierLow:    p.TierLow,
		Comparator: c.Comparator,
	}
	return cfg, err
}

// Query materializes the block for the querying party of a three-party
// session, which always runs the real protocol and labels residual pairs
// NonMatch; the allowance fraction, journal and context are the caller's.
func (p *Params) Query(schema *dataset.Schema, qids []string) (session.QueryConfig, error) {
	c, err := p.Core(qids)
	cfg := session.QueryConfig{
		Schema:    schema,
		QIDs:      qids,
		Theta:     c.Theta,
		Allowance: p.Allowance,
		Heuristic: c.Heuristic,
		KeyBits:   p.keyBits(),
		Tier:      c.Tier == core.TierBloom,
		TierLow:   p.TierLow,
	}
	return cfg, err
}
