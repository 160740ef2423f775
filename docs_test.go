package pprl_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// designCite matches a citation of DESIGN.md sections ("DESIGN.md §8",
	// "DESIGN.md §7, §11", "DESIGN.md §9/§10", a comment wrapped after
	// "DESIGN.md"); sectionNum pulls the numbers out of it.
	designCite    = regexp.MustCompile(`DESIGN\.md(?:\s|//|#)*((?:§\d+[a-z']*(?:[\s,/]|and|new)*)+)`)
	sectionNum    = regexp.MustCompile(`§(\d+)`)
	designSection = regexp.MustCompile(`(?m)^## (\d+)\. `)
	// testName is a test, fuzz target or benchmark named in prose; a
	// trailing * is a prefix glob and {a,b} an alternation.
	testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z_][A-Za-z0-9_]*(?:\{[A-Za-z0-9_,]*\}[A-Za-z0-9_]*)*\*?`)
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\(`)
	braces   = regexp.MustCompile(`\{([A-Za-z0-9_,]*)\}`)
)

// Line caps of the two documents every change reads first. Like
// TestOptionCount's numbers they only go down.
const (
	designMaxLines  = 1500
	testingMaxLines = 900
)

// TestDocReferences keeps the documents' references live: every cited
// DESIGN.md section exists, every test the design documents name is a
// func in a _test.go (TESTING.md may name a deleted one only on a ledger
// row), and DESIGN.md and TESTING.md stay under their line caps.
func TestDocReferences(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	design := read("DESIGN.md")
	sections := map[string]bool{}
	for _, m := range designSection.FindAllStringSubmatch(design, -1) {
		sections[m[1]] = true
	}
	funcs := map[string]bool{}
	var cited []string // files that may cite DESIGN.md sections
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "testdata": // history, benchmark checkouts, fixtures
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, "_test.go"):
			for _, m := range testFunc.FindAllStringSubmatch(read(path), -1) {
				funcs[m[1]] = true
			}
			cited = append(cited, path)
		case strings.HasSuffix(path, ".go"), strings.HasSuffix(path, ".md"), path == "Makefile":
			cited = append(cited, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// (a) Every cited section has its header.
	for _, path := range cited {
		for _, c := range designCite.FindAllStringSubmatch(read(path), -1) {
			for _, n := range sectionNum.FindAllStringSubmatch(c[1], -1) {
				if !sections[n[1]] {
					t.Errorf("%s cites DESIGN.md §%s, which has no \"## %s.\" header", path, n[1], n[1])
				}
			}
		}
	}

	// resolves reports whether a named test (glob and braces expanded)
	// is a func in some _test.go.
	resolves := func(name string) bool {
		for _, alt := range expand(name) {
			prefix, glob := strings.CutSuffix(alt, "*")
			found := funcs[alt]
			for f := range funcs {
				found = found || glob && strings.HasPrefix(f, prefix)
			}
			if !found {
				return false
			}
		}
		return true
	}

	// (b) The design documents name only live tests.
	for _, doc := range []string{"DESIGN.md", "README.md", "PROTOCOL.md", "SECURITY.md", "EXPERIMENTS.md"} {
		for _, name := range testName.FindAllString(read(doc), -1) {
			if !resolves(name) {
				t.Errorf("%s names %s, which no _test.go defines", doc, name)
			}
		}
	}

	// (c) TESTING.md names a deleted test only on a ledger row.
	ledger := read("TESTING.md")
	for i, line := range strings.Split(ledger, "\n") {
		if strings.HasPrefix(line, "|") {
			continue
		}
		for _, name := range testName.FindAllString(line, -1) {
			if !resolves(name) {
				t.Errorf("TESTING.md:%d names %s outside a ledger row, and no _test.go defines it", i+1, name)
			}
		}
	}

	// (d) Line caps.
	for _, c := range []struct {
		doc, text string
		most      int
	}{{"DESIGN.md", design, designMaxLines}, {"TESTING.md", ledger, testingMaxLines}} {
		n := strings.Count(c.text, "\n")
		t.Logf("%-22s %4d lines", c.doc, n)
		if n > c.most {
			t.Errorf("%s has %d lines, %d allowed", c.doc, n, c.most)
		}
	}
}

// expand returns name with each {a,b} alternation expanded.
func expand(name string) []string {
	m := braces.FindStringSubmatchIndex(name)
	if m == nil {
		return []string{name}
	}
	var out []string
	for _, alt := range strings.Split(name[m[2]:m[3]], ",") {
		out = append(out, expand(name[:m[0]]+alt+name[m[1]:])...)
	}
	return out
}
