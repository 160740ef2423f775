package pprl_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamples builds every program under examples/ and holds its stdout
// to examples/<name>/testdata/want.txt. Each example is deterministic:
// fixed seeds, and purchased verdicts are exact whatever the Paillier
// key. An intended change of output is an edit of its want.txt.
func TestExamples(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, m := range mains {
		name := filepath.Base(filepath.Dir(m))
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("examples", name, "testdata", "want.txt"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Command(filepath.Join(bin, name)).Output()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s printed\n%s\nwant (testdata/want.txt)\n%s", name, got, want)
			}
		})
	}
}
