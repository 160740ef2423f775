package pprl_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pprl/internal/cliutil"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/distrib"
	"pprl/internal/incremental"
	"pprl/internal/journal"
	"pprl/internal/service"
	"pprl/internal/session"
)

// flagDef matches one flag definition: on the package-level set in a
// command's main, or on the *flag.FlagSet (fs) the shared block in
// internal/cliutil registers on.
var flagDef = regexp.MustCompile(`\b(flag|fs)\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Var|Func)(Var)?\(`)

// TestOptionCount counts what a user can set — the exported fields of the
// four engine configs, of the frozen run's job type, of the two API
// bodies, of the daemon's, the fleet's, the journal's and the CSV reader's
// option structs, and the flag definitions under cmd/ and internal/cliutil
// — prints the counts (`make loc` shows them) and fails when one rises
// above the number written here: a new option is a deliberate edit of its
// line, with the two callers that need different values named in the
// change (simplicity-review, Options). Lower a number when an option goes.
func TestOptionCount(t *testing.T) {
	total := 0
	count := func(name string, n, most int) {
		t.Logf("%-22s %3d", name, n)
		if n > most {
			t.Errorf("%s has %d options, %d allowed: raise the number in this test only with the option's justification", name, n, most)
		}
		total += n
	}
	// An embedded struct is flattened — its fields are options of every
	// struct that embeds it — but they are one set of options: a shared
	// block has its own line here and is counted once.
	table := []struct {
		cfg  any
		most int
	}{
		{core.Config{}, 23},
		{incremental.Config{}, 13},
		{session.QueryConfig{}, 11},
		{session.HolderConfig{}, 7},
		{cliutil.Params{}, 14},
		{cliutil.Job{}, 7},
		{service.JobSpec{}, 2},
		{service.DatasetSpec{}, 2},
		{service.Config{}, 9},
		{distrib.PoolOptions{}, 2},
		{distrib.WorkerOptions{}, 5},
		{distrib.JobConfig{}, 5},
		{journal.Options{}, 1},
		{dataset.StreamOptions{}, 0},
	}
	listed := map[reflect.Type]bool{}
	for _, c := range table {
		listed[reflect.TypeOf(c.cfg)] = true
	}
	for _, c := range table {
		typ, n := reflect.TypeOf(c.cfg), 0
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); {
			case f.Anonymous && !listed[f.Type]:
				t.Errorf("%s embeds %s, which has no line in this test", typ, f.Type)
			case !f.Anonymous && f.IsExported():
				n++
			}
		}
		count(typ.String(), n, c.most)
	}
	flags := 0
	for _, dir := range []string{"cmd", filepath.Join("internal", "cliutil")} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			flags += len(flagDef.FindAll(src, -1))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	count("flags", flags, 63)
	t.Logf("%-22s %3d", "options", total)
}
