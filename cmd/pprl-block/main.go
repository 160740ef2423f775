// Command pprl-block runs the blocking step from the querying party's
// perspective: it consumes only the two anonymized view files the data
// holders published (see pprl-anon -view) — never raw records — and
// reports how much of the pair space the slack decision rule decides, how
// many pairs remain for the SMC step, and the SMC allowance needed for
// full recall. Two DP releases are blocked by bin intersection instead,
// which decides no pair Match; a DP release against a k-anonymous view is
// refused.
//
// Usage:
//
//	pprl-anon -in alice.csv -k 32 -view > alice.view
//	pprl-anon -in bob.csv   -k 32 -view > bob.view
//	pprl-block -a alice.view -b bob.view -theta 0.05
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"pprl"
	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/cliutil"
	"pprl/internal/distance"
	"pprl/internal/index"
)

func main() {
	var (
		aPath      = flag.String("a", "", "first holder's view file (required)")
		bPath      = flag.String("b", "", "second holder's view file (required)")
		theta      = flag.Float64("theta", 0.05, "matching threshold θ for every attribute")
		schemaPath = flag.String("schema", "", "schema manifest path (default: built-in Adult schema)")
	)
	flag.Parse()
	if err := run(os.Stdout, *schemaPath, *aPath, *bPath, *theta); err != nil {
		fmt.Fprintln(os.Stderr, "pprl-block:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, schemaPath, aPath, bPath string, theta float64) error {
	if aPath == "" || bPath == "" {
		return fmt.Errorf("-a and -b are required")
	}
	schema, err := loadSchema(schemaPath)
	if err != nil {
		return err
	}
	aView, err := readView(schema, aPath)
	if err != nil {
		return err
	}
	bView, err := readView(schema, bPath)
	if err != nil {
		return err
	}
	rule, err := blocking.UniformRule(distance.MetricsFor(schema, aView.QIDs), theta)
	if err != nil {
		return err
	}
	res, err := index.Block(aView, bView, rule)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "views: %s k=%d (%d sequences) × %s k=%d (%d sequences)\n",
		aView.Method, aView.K, aView.NumSequences(),
		bView.Method, bView.K, bView.NumSequences())
	fmt.Fprintf(out, "pairs: %d total\n", res.TotalPairs())
	fmt.Fprintf(out, "  matched by blocking:    %d\n", res.MatchedPairs)
	fmt.Fprintf(out, "  mismatched by blocking: %d\n", res.NonMatchedPairs)
	fmt.Fprintf(out, "  unknown (SMC needed):   %d\n", res.UnknownPairs)
	fmt.Fprintf(out, "blocking efficiency: %.2f%%\n", 100*res.Efficiency())
	if total := res.TotalPairs(); total > 0 {
		fmt.Fprintf(out, "SMC allowance for full recall: %.2f%% of all pairs (%d invocations)\n",
			100*float64(res.UnknownPairs)/float64(total), res.UnknownPairs)
	}
	fmt.Fprintf(out, "unknown group pairs: %d\n", len(res.UnknownGroupPairs()))
	st := res.Stats
	fmt.Fprintf(out, "index: evaluated %d of %d class pairs (%.2f%% pruned)\n",
		st.RuleEvaluations, st.ClassPairs, 100*st.PrunedFraction())
	for _, a := range st.Attrs {
		if !a.Indexed {
			fmt.Fprintf(out, "  attr %-10s not indexed\n", a.Name)
			continue
		}
		fmt.Fprintf(out, "  attr %-10s admitted %d of %d class pairs alone\n", a.Name, a.Admitted, st.ClassPairs)
	}
	return nil
}

func readView(schema *pprl.Schema, path string) (*anonymize.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	view, err := anonymize.ReadView(bufio.NewReader(f), schema)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return view, nil
}

// loadSchema resolves the -schema flag.
func loadSchema(path string) (*pprl.Schema, error) {
	return cliutil.LoadSchemaOrAdult(path)
}
