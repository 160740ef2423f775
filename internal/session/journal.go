package session

import (
	"crypto/sha256"
	"strconv"

	"pprl/internal/blocking"
	"pprl/internal/journal"
	"pprl/internal/resolve"
)

// ErrInterrupted is returned (wrapped) by RunQuery when
// QueryConfig.Context is cancelled mid-run, after the holder sessions are
// shut down; a journaled session interrupted this way resumes when
// RunQuery runs again with the same parameters against the same holders
// over a writer that journal.Open reopens on the same file. It is the
// resolution kernel's sentinel (see there for the checkpoint it
// guarantees), the same value as core.ErrInterrupted.
var ErrInterrupted = resolve.ErrInterrupted

// queryManifest describes a distributed run for the journal. The inputs
// digest covers the raw serialized views the holders published: the
// querying party never sees the private relations, but equal views under
// an equal classifier yield the same blocking, ordering, and verdicts —
// which is what makes replaying a journaled prefix sound.
func queryManifest(cfg *QueryConfig, block *blocking.Result, allowance int64, aliceView, bobView []byte) journal.Manifest {
	return journal.Manifest{
		ConfigDigest: queryConfigDigest(cfg, allowance),
		InputsDigest: viewsDigest(aliceView, bobView),
		TotalPairs:   block.TotalPairs(),
		UnknownPairs: block.UnknownPairs,
		Allowance:    allowance,
		Heuristic:    cfg.Heuristic.Name(),
	}
}

// queryConfigDigest hashes the classifier parameters that determine the
// verdicts. KeyBits is deliberately excluded: it changes the cost of a
// comparison, never its outcome, so a resumed session may use a different
// key size. "scale" stays in the hash at the fixed-point factor 1 every
// journal on disk was written with. The hash never covered the triage
// tier the session once offered, so a journal an older session wrote
// with its tier on still resumes: its tier records are a separate record
// type, and Begin hands back the purchased verdicts alone.
func queryConfigDigest(cfg *QueryConfig, allowance int64) [32]byte {
	h := sha256.New()
	for _, q := range cfg.QIDs {
		journal.HashField(h, "qid", q)
	}
	journal.HashField(h, "theta", strconv.FormatFloat(cfg.Theta, 'g', -1, 64))
	journal.HashField(h, "heuristic", cfg.Heuristic.Name())
	journal.HashField(h, "allowance", strconv.FormatInt(allowance, 10))
	journal.HashField(h, "scale", "1")
	return [32]byte(h.Sum(nil))
}

// viewsDigest hashes the holders' published views byte for byte.
func viewsDigest(aliceView, bobView []byte) [32]byte {
	h := sha256.New()
	journal.HashField(h, "alice", strconv.Itoa(len(aliceView)))
	h.Write(aliceView)
	journal.HashField(h, "bob", strconv.Itoa(len(bobView)))
	h.Write(bobView)
	return [32]byte(h.Sum(nil))
}
