package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"pprl/internal/core"
	"pprl/internal/journal"
)

// CLI is the parameter block as pprl-link and pprl-party take it: Params
// plus what both tools' flags add around it — the allowance as a fraction
// of the walked pair space, the holders' k and DP binning depth, and the
// run's journal.
type CLI struct {
	Params
	// AllowanceFraction is -allowance: the SMC budget as a share of the
	// walked pair space (heuristic.Plan). An explicit 0 buys nothing.
	AllowanceFraction float64
	// K is the holders' anonymity requirement, DPLevel their VGH binning
	// depth under DP blocking (0 = default).
	K       int
	DPLevel int
	// Journal is the run's durable journal, opened by journal.Open: a
	// fresh run starts it, an interrupted one continues from it.
	// JournalSync is the write-and-fsync cadence in verdicts (0 = default
	// batching); a -dedup batch is fsynced once, at its commit.
	Journal     string
	JournalSync int
}

// FlagGroup selects the block's flags by the party that reads them.
type FlagGroup uint8

const (
	QueryFlags  FlagGroup = 1 << iota // the decision rule, the budget, the key size, the journal
	HolderFlags                       // k and the DP release
)

// Flags registers -schema, which both parties read, and the flags of
// groups, each once, with the paper's defaults: pprl-link takes both
// groups, a pprl-party role its own.
func (c *CLI) Flags(fs *flag.FlagSet, groups FlagGroup) {
	def := core.DefaultConfig(nil)
	fs.StringVar(&c.SchemaPath, "schema", "", "schema manifest path (default: built-in Adult schema)")
	if groups&QueryFlags != 0 {
		fs.Func("qids", "comma-separated quasi-identifier attributes (default: the paper's Adult set, or every attribute of -schema)", func(s string) error {
			c.QIDs = strings.Split(s, ",")
			return nil
		})
		fs.Float64Var(&c.Theta, "theta", def.Theta, "matching threshold θ for every attribute")
		fs.Float64Var(&c.AllowanceFraction, "allowance", def.AllowanceFraction, "SMC allowance as a fraction of the walked pair space (padded handle pairs under DP)")
		fs.StringVar(&c.Heuristic, "heuristic", "minAvgFirst", "SMC selection heuristic: minFirst, maxLast, minAvgFirst")
		fs.IntVar(&c.KeyBits, "keybits", DefaultKeyBits, "Paillier key size")
		fs.StringVar(&c.Journal, "journal", "", "record the run to a durable journal at this path; run the same command again to resume it")
		fs.IntVar(&c.JournalSync, "journal-sync", 0, "write and fsync the journal every N verdicts; a -dedup batch only writes, and fsyncs once at its commit (0 = default batching)")
	}
	if groups&HolderFlags != 0 {
		fs.IntVar(&c.K, "k", def.AliceK, "holders' anonymity requirement")
		fs.Float64Var(&c.Epsilon, "epsilon", 0, "per-holder differential-privacy budget for the dp anonymization method")
		fs.Float64Var(&c.DPDelta, "dp-delta", 0, "DP truncation mass (0 = default)")
		fs.Int64Var(&c.DPSeed, "dp-seed", 0, "DP noise seed, private to each holder and separated by its role (pprl-link walks the release two pprl-party holders at this seed publish)")
		fs.IntVar(&c.DPLevel, "dp-level", 0, "VGH binning depth for the dp method (0 = default)")
	}
}

// Validate refuses flag values no run could use, before any file is
// opened, journal created or port bound.
func (c *CLI) Validate() error {
	if err := c.Params.Validate(FlagNames); err != nil {
		return err
	}
	return AllowanceFractionRange.Validate(c.AllowanceFraction)
}

// OpenJournal opens the -journal file with journal.Open, which starts it
// or resumes it as the file on disk says; the writer is nil when the run
// is not journaled.
func (c *CLI) OpenJournal() (*journal.Writer, error) {
	if c.Journal == "" {
		return nil, nil
	}
	return journal.Open(c.Journal, journal.Options{SyncEvery: c.JournalSync})
}

// Fail reports a run's error as tool and exits: 130 when the run was
// interrupted (saying how to continue it, if it was journaled and so
// checkpointed), 1 otherwise.
func (c *CLI) Fail(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	if !errors.Is(err, core.ErrInterrupted) {
		os.Exit(1)
	}
	if c.Journal != "" {
		fmt.Fprintf(os.Stderr, "%s: checkpoint saved to %s; run the same command again to continue\n", tool, c.Journal)
	}
	os.Exit(130)
}
