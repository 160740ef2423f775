// Package pprl is a Go implementation of hybrid private record linkage as
// introduced by Inan, Kantarcioglu, Bertino and Scannapieco, "A Hybrid
// Approach to Private Record Linkage", ICDE 2008.
//
// Two data holders (Alice and Bob) want a querying party to learn which
// record pairs across their private relations describe the same real-world
// entity, under a per-attribute distance/threshold classifier. The hybrid
// protocol combines two classic approaches:
//
//   - Sanitization: each holder publishes a k-anonymized view of its
//     quasi-identifiers. A blocking step applies the slack decision rule —
//     infimum and supremum distances over the specialization sets of the
//     generalized values — and labels most pairs Match or NonMatch with
//     zero error.
//   - Cryptography: the remaining Unknown pairs are resolved with a
//     Paillier-homomorphic-encryption three-party protocol, under a
//     configurable budget (the SMC allowance), ordered by expected-distance
//     selection heuristics.
//
// The result trades off privacy (k), cost (allowance) and accuracy
// (recall) while precision stays 100% under the default strategy.
//
// # Quick start
//
//	schema := pprl.AdultSchema()
//	alice, bob := … // two *pprl.Dataset over schema
//	cfg := pprl.DefaultConfig(pprl.DefaultAdultQIDs())
//	res, err := pprl.Link(pprl.Holder{Data: alice}, pprl.Holder{Data: bob}, cfg)
//	…
//	matched := res.PairMatched(i, j)
//
// The package is a facade: the implementation lives in internal packages
// (vgh, dataset, anonymize, distance, blocking, paillier, smc, heuristic,
// core, session, experiment), each documented independently.
package pprl

import (
	"pprl/internal/adult"
	"pprl/internal/anonymize"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/journal"
	"pprl/internal/match"
	"pprl/internal/metrics"
	"pprl/internal/session"
	"pprl/internal/smc"
	"pprl/internal/vgh"
)

// ---- Data model ----

// Schema is an ordered list of typed attributes shared by the relations
// being linked.
type Schema = dataset.Schema

// Attribute describes one column and its generalization hierarchy.
type Attribute = dataset.Attribute

// Dataset is an in-memory relation.
type Dataset = dataset.Dataset

// Record is one row of a Dataset.
type Record = dataset.Record

// Cell is one attribute value of a Record.
type Cell = dataset.Cell

// Hierarchy is a categorical value generalization hierarchy (VGH).
type Hierarchy = vgh.Hierarchy

// IntervalHierarchy generalizes continuous values into nested equi-width
// intervals.
type IntervalHierarchy = vgh.IntervalHierarchy

var (
	// NewSchema assembles and validates a schema.
	NewSchema = dataset.NewSchema
	// MustSchema is NewSchema that panics, for static schemas.
	MustSchema = dataset.MustSchema
	// CatAttr declares a categorical attribute over a hierarchy.
	CatAttr = dataset.CatAttr
	// NumAttr declares a continuous attribute over an interval hierarchy.
	NumAttr = dataset.NumAttr
	// NewDataset creates an empty relation over a schema.
	NewDataset = dataset.New
	// ReadCSV parses a relation from CSV against a schema.
	ReadCSV = dataset.ReadCSV
	// ReadCSVDropMissing parses CSV and drops rows with "?" markers, the
	// paper's Adult preprocessing.
	ReadCSVDropMissing = dataset.ReadCSVDropMissing
	// LoadSchema reads a schema from a manifest + .vgh files on disk.
	LoadSchema = dataset.LoadSchema
	// SaveSchema writes a schema as an editable manifest + .vgh files.
	SaveSchema = dataset.SaveSchema
	// SplitOverlap cuts one relation into two overlapping ones (the
	// paper's experimental construction).
	SplitOverlap = dataset.SplitOverlap
	// CatCell builds a categorical cell from a hierarchy leaf label.
	CatCell = dataset.CatCell
	// NumCell builds a continuous cell.
	NumCell = dataset.NumCell

	// ParseVGH reads a hierarchy from the indented text format.
	ParseVGH = vgh.Parse
	// MustParseVGH is ParseVGH over a string literal that panics.
	MustParseVGH = vgh.MustParse
	// NewVGHBuilder constructs a hierarchy programmatically.
	NewVGHBuilder = vgh.NewBuilder
	// FlatVGH builds a one-level hierarchy from a value list.
	FlatVGH = vgh.Flat
	// NewIntervalHierarchy builds a continuous hierarchy.
	NewIntervalHierarchy = vgh.NewIntervalHierarchy
	// PrefixHierarchy clusters a string dictionary by prefixes — the
	// generalization mechanism for alphanumeric attributes (the paper's
	// future-work extension).
	PrefixHierarchy = vgh.PrefixHierarchy
)

// ---- Distances ----

var (
	// Levenshtein is the edit distance underlying the alphanumeric
	// extension.
	Levenshtein = distance.Levenshtein
	// NewEditMetric builds the normalized edit-distance metric over a
	// string-dictionary hierarchy; it plugs into blocking exactly like
	// Hamming.
	NewEditMetric = distance.NewEdit
)

// ---- Anonymization ----

// Anonymizer is a k-anonymization algorithm.
type Anonymizer = anonymize.Anonymizer

// AnonymizedView is the published artifact of one data holder: the
// equivalence classes of its k-anonymized quasi-identifiers.
type AnonymizedView = anonymize.Result

var (
	// NewMaxEntropy is the paper's anonymizer: top-down specialization
	// choosing the maximum-entropy attribute, maximizing blocking
	// efficiency.
	NewMaxEntropy = anonymize.NewMaxEntropy
	// NewTDS is Fung et al.'s information-gain top-down specialization.
	NewTDS = anonymize.NewTDS
	// NewDataFly is Sweeney's bottom-up full-domain generalizer.
	NewDataFly = anonymize.NewDataFly
	// NewMondrian is a multidimensional median-cut partitioner
	// (extension).
	NewMondrian = anonymize.NewMondrian
	// NewLDiverseEntropy adds distinct l-diversity of the Class label to
	// the max-entropy anonymizer (extension; related work [10]).
	NewLDiverseEntropy = anonymize.NewLDiverseEntropy
	// WriteView serializes an anonymized view in the exchange format a
	// data holder publishes.
	WriteView = anonymize.WriteView
	// ReadView parses a published view against a schema.
	ReadView = anonymize.ReadView
)

// ---- Linkage ----

// Config parameterizes a linkage run; start from DefaultConfig.
type Config = core.Config

// Holder wraps one data holder's relation.
type Holder = core.Holder

// Result is the complete labeling of the pair space with cost accounting.
type Result = core.Result

// Strategy selects the residual labeling of budget-starved Unknown pairs.
type Strategy = core.Strategy

// Residual-labeling strategies (paper Section V-B).
const (
	// MaximizePrecision labels residual pairs non-match (the paper's
	// default: precision is always 100%).
	MaximizePrecision = core.MaximizePrecision
	// MaximizeRecall labels residual pairs match.
	MaximizeRecall = core.MaximizeRecall
	// TrainClassifier labels residual pairs with a classifier trained on
	// the SMC outcomes.
	TrainClassifier = core.TrainClassifier
)

// TierMode selects the triage tier between blocking and SMC
// (Config.Tier, DESIGN.md §12).
type TierMode = core.TierMode

// Triage-tier modes.
const (
	// TierOff disables the tier: every Unknown pair competes for the SMC
	// allowance directly (the paper's two-tier pipeline).
	TierOff = core.TierOff
	// TierBloom scores Unknown pairs with the Dice coefficient over
	// keyed CLK Bloom encodings and labels those at or below
	// Config.TierLow NonMatch for free, so the allowance reaches further.
	// It never labels a Match: under MaximizePrecision every reported
	// match stays exact, and what the tier may cost is recall, bounded by
	// Result.TierNonMatchedPairs (under MaximizeRecall a tier NonMatch
	// overrides the residual Match).
	TierBloom = core.TierBloom
)

var (
	// DefaultConfig returns the paper's Section VI defaults.
	DefaultConfig = core.DefaultConfig
	// ErrInterrupted is wrapped by Link when Config.Context is cancelled:
	// the engine checkpoints the journal and stops at a chunk boundary.
	ErrInterrupted = core.ErrInterrupted
	// Link runs the full hybrid pipeline.
	Link = core.Link
	// LinkPrepared finishes a run over a cached blocking stage (for
	// parameter sweeps).
	LinkPrepared = core.LinkPrepared
	// SecureComparatorFactory makes Link run the real three-party
	// Paillier protocol with the given key size instead of the
	// plaintext cost-model oracle.
	SecureComparatorFactory = core.SecureComparatorFactory
	// PlainComparatorFactory is the default cost-model oracle.
	PlainComparatorFactory = core.PlainComparatorFactory
)

// ---- Durable run journal ----

// JournalWriter appends a run's manifest and pair verdicts to a durable
// write-ahead journal file; it implements JournalSink.
type JournalWriter = journal.Writer

// JournalSink is what the linkage engines write runs through; set it as
// Config.Journal (or session.QueryConfig.Journal).
type JournalSink = journal.Sink

// JournalOptions tunes a journal writer (fsync batching).
type JournalOptions = journal.Options

var (
	// OpenJournal starts a journal at a path, or resumes the interrupted
	// run it holds — truncating any torn tail, after which the engine
	// replays its verdicts without re-spending the SMC allowance. A file
	// cut short before its manifest became durable starts over; a
	// foreign or newer file is refused and left as it is.
	OpenJournal = journal.Open
	// ReplayJournal reads a journal without opening it for append.
	ReplayJournal = journal.Replay
)

// ---- Evaluation ----

// Pair is a record pair (I in Alice's relation, J in Bob's).
type Pair = match.Pair

// Confusion summarizes precision/recall against ground truth.
type Confusion = metrics.Confusion

var (
	// TruePairs computes ground truth: all pairs satisfying the exact
	// decision rule.
	TruePairs = match.TruePairs
)

// ---- Three-party deployment ----

// SMCConn is a message transport between protocol parties.
type SMCConn = smc.Conn

// HolderConfig is one data holder's local configuration: its relation and
// its own privacy parameters.
type HolderConfig = session.HolderConfig

// QueryConfig is the querying party's configuration: the classifier and
// the SMC budget.
type QueryConfig = session.QueryConfig

var (
	// NewSMCNetConn wraps a net.Conn (e.g. TCP) as a protocol transport.
	NewSMCNetConn = smc.NewNetConn
	// RunHolder runs a data holder end to end: anonymize its relation,
	// publish the view, then serve the SMC protocol as Alice or Bob.
	RunHolder = session.RunHolder
	// RunQuery runs the querying party: broadcast the classifier, block on
	// the two published views and buy the ordered Unknown pairs within
	// the allowance.
	RunQuery = session.RunQuery
)

// ---- Adult workload ----

var (
	// AdultSchema builds the UCI-Adult quasi-identifier schema with the
	// standard VGHs.
	AdultSchema = adult.Schema
	// GenerateAdult synthesizes an Adult-like dataset (see DESIGN.md §3
	// for the substitution rationale).
	GenerateAdult = adult.GenerateInto
	// DefaultAdultQIDs is the paper's default quasi-identifier set.
	DefaultAdultQIDs = adult.DefaultQIDs
	// TopAdultQIDs returns the first q attributes of the paper's QID
	// ordering.
	TopAdultQIDs = adult.TopQIDs
)
