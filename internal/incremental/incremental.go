// Package incremental implements live-dataset linkage: long-lived
// engine state that absorbs append-only record batches and emits, per
// batch, only the *delta* of newly discovered Match pairs, spending the
// SMC allowance once per pair over the dataset's lifetime instead of
// once per re-run. Each batch's budget loop is internal/resolve
// (DESIGN.md §16), fed the batch's new candidate pairs.
//
// The equivalence contract (DESIGN.md §15) is what makes deltas
// meaningful: the union of deltas across K batches is pair-identical to
// one frozen run over the final relations, so a consumer integrating the
// stream never sees a retraction. The contract holds because every layer
// the engine reuses is insertion-stable — records are generalized by
// fixed-level binning (dpblock.LevelBinner), whose output for a record
// never depends on the rest of the dataset; blocking labels are a pure
// function of two bin sequences; tier labels are a pure function of two
// records; and SMC verdicts are exact. A new record therefore only ever
// *adds* candidate pairs (new × existing population, via the live
// inverted index), and a pair's verdict is fixed the moment it is
// resolved.
//
// The engine has no DP mode: it publishes no view, so there is no release
// for noise to protect (SECURITY.md, "Repeated releases").
package incremental

import (
	"crypto/sha256"
	"fmt"
	"strconv"

	"pprl/internal/bloom"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/dpblock"
	"pprl/internal/heuristic"
	"pprl/internal/journal"
)

// Config parameterizes a live dataset. The zero value is not usable;
// QIDs are required, everything else defaults per the field comments.
type Config struct {
	// QIDs names the quasi-identifier attributes (required).
	QIDs []string
	// Theta is the uniform distance threshold (0 selects the paper's
	// 0.05); Thresholds optionally gives per-attribute thresholds and
	// overrides Theta.
	Theta      float64
	Thresholds []float64
	// Level is the fixed binning depth below each hierarchy root
	// (0 selects dpblock.DefaultLevel). It plays the role the anonymizer
	// choice plays in the frozen pipeline; deeper bins prune more pairs
	// but miss more boundary-straddling matches.
	Level int
	// Allowance is the absolute lifetime SMC pool shared by all batches;
	// 0 means unlimited. There is no fraction form: the matrix it would
	// be a fraction of grows forever.
	Allowance int64
	// Heuristic orders each batch's uncertain groups (nil selects
	// minAvgFirst); Strategy decides residual labels when the pool runs
	// dry (TrainClassifier is not supported incrementally).
	Heuristic heuristic.Heuristic
	Strategy  core.Strategy
	// Tier enables the CLK triage tier with the frozen engine's knobs, like
	// there outside the journal manifest: a dataset may restart with the
	// tier switched or retuned — a committed batch replays from its frame
	// (purchases and tier labels), the new setting applies after it.
	Tier    core.TierMode
	TierLow float64
	// Dedup links the dataset against itself: one side, unordered pairs
	// i<j, self-pairs excluded.
	Dedup bool
	// Comparator builds the SMC backend (nil selects the plaintext
	// oracle), with one protocol lane: once per engine when what it builds
	// can Grow (the oracle), once per purchasing batch otherwise.
	Comparator core.ComparatorFactory
	// Journal, when set, makes the run durable: batch marks, verdicts and
	// commits are framed per DESIGN.md §15. Recovered must then carry the
	// replayed state when resuming (journal.Writer.Recovered()); nil for
	// a fresh journal.
	Journal   journal.BatchSink
	Recovered *journal.Recovered
}

// normalize fills the zero-value knobs, mirroring core.DefaultConfig where
// the knob has a frozen-run counterpart, and rejects configurations the
// incremental engine cannot honor.
func (c Config) normalize() (Config, error) {
	if c.Theta == 0 && c.Thresholds == nil {
		c.Theta = 0.05
	}
	if c.Level == 0 {
		c.Level = dpblock.DefaultLevel
	}
	if c.Heuristic == nil {
		c.Heuristic = heuristic.MinAvgFirst{}
	}
	if c.Comparator == nil {
		c.Comparator = core.PlainComparatorFactory
	}
	if c.Tier == core.TierBloom {
		if err := bloom.TierLow(&c.TierLow); err != nil {
			return c, fmt.Errorf("incremental: %w", err)
		}
	}
	if len(c.QIDs) == 0 {
		return c, fmt.Errorf("incremental: QIDs are required")
	}
	if c.Strategy == core.TrainClassifier {
		return c, fmt.Errorf("incremental: the TrainClassifier strategy needs the full residual population and cannot run incrementally")
	}
	if c.Allowance < 0 {
		return c, fmt.Errorf("incremental: negative allowance %d", c.Allowance)
	}
	if c.Level < 0 {
		return c, fmt.Errorf("incremental: level must be ≥ 0, got %d", c.Level)
	}
	if c.Journal == nil && c.Recovered != nil {
		return c, fmt.Errorf("incremental: Recovered set without a Journal")
	}
	return c, nil
}

// manifest builds the journal manifest for the run. TotalPairs and
// UnknownPairs are 0 — a live dataset has no final pair matrix to
// summarize — and InputsDigest covers the registration (schema shape,
// QIDs, dedup flag), not the record data: the records are watermarked
// per batch by the recBatch digests instead.
func (c *Config) manifest(schema *dataset.Schema, qids []int) journal.Manifest {
	return journal.Manifest{
		InputsDigest: registrationDigest(schema, qids, c.Dedup),
		ConfigDigest: c.configDigest(),
		Allowance:    c.Allowance,
		Heuristic:    c.Heuristic.Name(),
	}
}

// configDigest hashes the parameters that determine which pairs are
// resolved and what they cost. As in the frozen engine, the comparator
// backend and the tier knobs are excluded: they change speed or free
// labels, never purchased verdicts. The engine makes no random choice and
// encodes at fixed-point factor 1; "seed" and "scale" stay in the hash, at
// the 0 and 1 every journal on disk was written with, so those journals
// still resume.
func (c *Config) configDigest() [32]byte {
	h := sha256.New()
	for _, q := range c.QIDs {
		journal.HashField(h, "qid", q)
	}
	journal.HashField(h, "theta", strconv.FormatFloat(c.Theta, 'g', -1, 64))
	for _, th := range c.Thresholds {
		journal.HashField(h, "threshold", strconv.FormatFloat(th, 'g', -1, 64))
	}
	journal.HashField(h, "level", strconv.Itoa(c.Level))
	journal.HashField(h, "allowance", strconv.FormatInt(c.Allowance, 10))
	journal.HashField(h, "heuristic", c.Heuristic.Name())
	journal.HashField(h, "strategy", c.Strategy.String())
	journal.HashField(h, "scale", "1")
	journal.HashField(h, "seed", "0")
	journal.HashField(h, "dedup", strconv.FormatBool(c.Dedup))
	return [32]byte(h.Sum(nil))
}

// registrationDigest hashes what a dataset registration pins: the schema
// shape and the linkage arity.
func registrationDigest(schema *dataset.Schema, qids []int, dedup bool) [32]byte {
	h := sha256.New()
	core.HashSchema(h, schema)
	for _, q := range qids {
		journal.HashField(h, "qid", strconv.Itoa(q))
	}
	journal.HashField(h, "dedup", strconv.FormatBool(dedup))
	return [32]byte(h.Sum(nil))
}

// BatchDigest is the recBatch watermark: a hash of one appended batch's
// records and target side. Resume re-reads the stored batch files and
// refuses to replay journal verdicts against a batch whose digest
// changed.
func BatchDigest(side int, recs []dataset.Record) [32]byte {
	h := sha256.New()
	journal.HashField(h, "side", strconv.Itoa(side))
	journal.HashField(h, "records", strconv.Itoa(len(recs)))
	for _, rec := range recs {
		core.HashRecord(h, rec)
	}
	return [32]byte(h.Sum(nil))
}
