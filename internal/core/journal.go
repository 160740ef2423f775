package core

import (
	"crypto/sha256"
	"hash"
	"strconv"
	"sync"

	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/journal"
	"pprl/internal/resolve"
)

// ErrInterrupted is returned (wrapped) by Link when Config.Context is
// cancelled mid-run; a journaled run interrupted this way resumes when
// Link runs again with the same config and inputs over a writer that
// journal.Open reopens on the same file. It is the resolution kernel's
// sentinel (see there for the checkpoint it guarantees), the same value
// as session.ErrInterrupted.
var ErrInterrupted = resolve.ErrInterrupted

// runManifest describes the run for the journal: digests of everything
// that determines the heuristic ordering and the pair verdicts, plus the
// blocking summary and resolved allowance. Two runs with equal manifests
// resolve the same pairs in the same order to the same verdicts, which is
// what makes replaying a journaled prefix sound.
func runManifest(alice, bob Holder, block *blocking.Result, cfg *Config, allowance int64) journal.Manifest {
	return journal.Manifest{
		ConfigDigest: configDigest(cfg, allowance),
		InputsDigest: inputsDigest(alice.Data, bob.Data),
		TotalPairs:   block.TotalPairs(),
		UnknownPairs: block.UnknownPairs,
		Allowance:    allowance,
		Seed:         cfg.Seed,
		Heuristic:    cfg.Heuristic.Name(),
	}
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
func configDigest(cfg *Config, allowance int64) [32]byte {
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
	// and therefore which handle pairs the walk buys. The last says a DP
	// journal's pairs are padded handles: a DP journal written before the
	// walk was padded holds record pairs, lacks the field, and so fails
	// the manifest's config-digest check.
	if cfg.DPEnabled() {
		journal.HashField(h, "epsilon", strconv.FormatFloat(cfg.Epsilon, 'g', -1, 64))
		journal.HashField(h, "dpdelta", strconv.FormatFloat(cfg.DPDelta, 'g', -1, 64))
		journal.HashField(h, "dpseed", strconv.FormatInt(cfg.DPSeed, 10))
		journal.HashField(h, "dplevel", strconv.Itoa(cfg.DPLevel))
		journal.HashField(h, "dppairs", "padded handles")
	}
	return [32]byte(h.Sum(nil))
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
// manifest digest: the HashField fields "id", "class" (when set) and a
// "cat" or "num" per cell, appended into a pooled buffer and written once.
func HashRecord(h hash.Hash, rec dataset.Record) {
	bp := recordPool.Get().(*[]byte)
	var num [32]byte
	b := journal.AppendField((*bp)[:0], "id", strconv.AppendInt(num[:0], int64(rec.EntityID), 10))
	if rec.Class != "" {
		b = journal.AppendField(b, "class", rec.Class)
	}
	for _, c := range rec.Cells {
		if c.Node != nil {
			b = journal.AppendField(b, "cat", c.Node.Value)
		} else {
			b = journal.AppendField(b, "num", strconv.AppendFloat(num[:0], c.Num, 'g', -1, 64))
		}
	}
	h.Write(b)
	*bp = b
	recordPool.Put(bp)
}

var recordPool = sync.Pool{New: func() any { return new([]byte) }}
