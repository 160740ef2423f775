package core

import (
	"crypto/sha256"
	"errors"
	"hash"
	"strconv"

	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/journal"
	"pprl/internal/resolve"
)

// ErrInterrupted is returned (wrapped) by Link when Config.Context is
// cancelled mid-run; a journaled run interrupted this way is resumable via
// journal.Resume. It is the resolution kernel's sentinel (see there for
// the checkpoint it guarantees), the same value as session.ErrInterrupted.
var ErrInterrupted = resolve.ErrInterrupted

// runManifest describes the run for the journal: digests of everything
// that determines the heuristic ordering and the pair verdicts, plus the
// blocking summary and resolved allowance. Two runs with equal manifests
// resolve the same pairs in the same order to the same verdicts, which is
// what makes replaying a journaled prefix sound. rec is the journal being
// resumed, nil for a fresh one (hashPadded).
func runManifest(alice, bob Holder, block *blocking.Result, cfg *Config, allowance int64, rec *journal.Recovered) (m journal.Manifest, err error) {
	m = journal.Manifest{
		InputsDigest: inputsDigest(alice.Data, bob.Data),
		TotalPairs:   block.TotalPairs(),
		UnknownPairs: block.UnknownPairs,
		Allowance:    allowance,
		Seed:         cfg.Seed,
		Heuristic:    cfg.Heuristic.Name(),
	}
	m.ConfigDigest, err = configDigest(cfg, allowance, rec)
	return m, err
}

// ErrUnpaddedJournal refuses a DP journal written before DP runs walked
// their padded releases: its pairs are records, not handles.
var ErrUnpaddedJournal = errors.New("journal: a DP journal from before DP runs walked the padded release — its pairs are records, this build's are padded handles; refusing to resume, start a fresh journal")

// hashPadded ends a DP config digest with the field that says its pairs
// are padded handles, and refuses rec, the journal a run resumes (nil when
// fresh), if its digest is the one without it: a journal of record pairs.
func hashPadded(h hash.Hash, rec *journal.Recovered) error {
	if rec != nil && rec.Manifest.ConfigDigest == [32]byte(h.Sum(nil)) {
		return ErrUnpaddedJournal
	}
	journal.HashField(h, "dppairs", "padded handles")
	return nil
}

// configDigest hashes the normalized run parameters. SMCWorkers and the
// comparator backend are deliberately excluded: they change how fast
// verdicts arrive, never which verdicts arrive, so a run may resume with
// different parallelism or switch between the plaintext oracle and the
// secure protocol. The Tier knobs (mode, thresholds) are excluded for a
// different reason: tier labels are deterministic, free to recompute, and
// journaled separately from purchased verdicts, while a purchased verdict
// is exact under any tier configuration — so a journaled run may resume
// with the tier switched on, off, or retuned: the resolution kernel
// charges the journaled purchases first and recomputes tier labels around
// them.
func configDigest(cfg *Config, allowance int64, rec *journal.Recovered) ([32]byte, error) {
	h := sha256.New()
	for _, q := range cfg.QIDs {
		journal.HashField(h, "qid", q)
	}
	journal.HashField(h, "theta", strconv.FormatFloat(cfg.Theta, 'g', -1, 64))
	for _, th := range cfg.Thresholds {
		journal.HashField(h, "threshold", strconv.FormatFloat(th, 'g', -1, 64))
	}
	journal.HashField(h, "aliceK", strconv.Itoa(cfg.AliceK))
	journal.HashField(h, "bobK", strconv.Itoa(cfg.BobK))
	journal.HashField(h, "anonA", cfg.AliceAnonymizer.Name())
	journal.HashField(h, "anonB", cfg.BobAnonymizer.Name())
	journal.HashField(h, "heuristic", cfg.Heuristic.Name())
	journal.HashField(h, "strategy", cfg.Strategy.String())
	journal.HashField(h, "allowance", strconv.FormatInt(allowance, 10))
	journal.HashField(h, "scale", "1") // the circuit's fixed-point factor, as every journal on disk hashed it
	journal.HashField(h, "seed", strconv.FormatInt(cfg.Seed, 10))
	// The DP parameters are hashed only when DP is enabled, so digests of
	// k-anonymous runs are unchanged from before the mode existed. A dp
	// run and a k-anonymous run already differ via the anonymizer names;
	// these fields refuse resumption across a silently changed ε, δ,
	// noise seed or binning level — any of which changes the padded bins
	// and therefore which handle pairs the walk buys.
	if cfg.DPEnabled() {
		journal.HashField(h, "epsilon", strconv.FormatFloat(cfg.Epsilon, 'g', -1, 64))
		journal.HashField(h, "dpdelta", strconv.FormatFloat(cfg.DPDelta, 'g', -1, 64))
		journal.HashField(h, "dpseed", strconv.FormatInt(cfg.DPSeed, 10))
		journal.HashField(h, "dplevel", strconv.Itoa(cfg.DPLevel))
		if err := hashPadded(h, rec); err != nil {
			return [32]byte{}, err
		}
	}
	return [32]byte(h.Sum(nil)), nil
}

// inputsDigest hashes both relations: schema shape plus every record's
// identity, class label and cells. All attributes are covered, not just
// the QIDs, because classification-aware anonymizers (TDS) read beyond
// the QID set.
func inputsDigest(alice, bob *dataset.Dataset) [32]byte {
	h := sha256.New()
	HashSchema(h, alice.Schema())
	for _, d := range []*dataset.Dataset{alice, bob} {
		journal.HashField(h, "relation", strconv.Itoa(d.Len()))
		for i := 0; i < d.Len(); i++ {
			HashRecord(h, d.Record(i))
		}
	}
	return [32]byte(h.Sum(nil))
}

// HashSchema writes a schema's shape into a manifest digest. The live
// dataset engine digests registrations and batches with the same two
// helpers, so a record hashes alike in a frozen and an incremental run.
func HashSchema(h hash.Hash, schema *dataset.Schema) {
	for i := 0; i < schema.Len(); i++ {
		a := schema.Attr(i)
		journal.HashField(h, "attr", a.Name)
		journal.HashField(h, "kind", a.Kind.String())
		journal.HashField(h, "range", strconv.FormatFloat(a.Range(), 'g', -1, 64))
	}
}

// HashRecord writes one record's identity, class label and cells into a
// manifest digest.
func HashRecord(h hash.Hash, rec dataset.Record) {
	journal.HashField(h, "id", strconv.Itoa(rec.EntityID))
	if rec.Class != "" {
		journal.HashField(h, "class", rec.Class)
	}
	for _, c := range rec.Cells {
		if c.Node != nil {
			journal.HashField(h, "cat", c.Node.Value)
		} else {
			journal.HashField(h, "num", strconv.FormatFloat(c.Num, 'g', -1, 64))
		}
	}
}
