package pprl_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pprl/internal/core"
	"pprl/internal/incremental"
	"pprl/internal/service"
	"pprl/internal/session"
)

// flagDef matches one flag definition in a command's source.
var flagDef = regexp.MustCompile(`\bflag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Var|Func)(Var)?\(`)

// TestOptionCount counts what a user can set — the exported fields of the
// six config structs and the flag definitions under cmd/ — prints the
// counts (`make loc` shows them) and fails when one rises above the number
// written here: a new option is a deliberate edit of its line, with the
// two callers that need different values named in the change
// (simplicity-review, Options). Lower a number when an option goes.
func TestOptionCount(t *testing.T) {
	total := 0
	count := func(name string, n, most int) {
		t.Logf("%-22s %3d", name, n)
		if n > most {
			t.Errorf("%s has %d options, %d allowed: raise the number in this test only with the option's justification", name, n, most)
		}
		total += n
	}
	for _, c := range []struct {
		cfg  any
		most int
	}{
		{core.Config{}, 25},
		{incremental.Config{}, 19},
		{session.QueryConfig{}, 16},
		{session.HolderConfig{}, 8},
		{service.JobSpec{}, 26},
		{service.DatasetSpec{}, 18},
	} {
		typ, n := reflect.TypeOf(c.cfg), 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		count(typ.String(), n, c.most)
	}
	flags := 0
	err := filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
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
	count("cmd/ flags", flags, 91)
	t.Logf("%-22s %3d", "options", total)
}
