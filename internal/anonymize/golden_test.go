package anonymize_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/anonymize"
	"pprl/internal/dpblock"
)

var update = flag.Bool("update", false, "rewrite the golden view files")

// goldenViews builds one deterministic view per anonymizer mode — the
// four k-anonymous methods plus the DP binner with its noised release —
// over a fixed Adult sample. This lives in an external test package
// because the DP binner (dpblock) imports anonymize.
func goldenViews(t *testing.T) map[string]*anonymize.Result {
	t.Helper()
	d := adult.Generate(120, 1)
	qids, err := d.Schema().Resolve(adult.TopQIDs(4))
	if err != nil {
		t.Fatal(err)
	}
	views := make(map[string]*anonymize.Result)
	for _, a := range []anonymize.Anonymizer{
		anonymize.NewMaxEntropy(), anonymize.NewTDS(), anonymize.NewDataFly(), anonymize.NewMondrian(),
	} {
		res, err := a.Anonymize(d, qids, 8)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		views[a.Name()] = res
	}
	binner, err := dpblock.New(dpblock.Params{Epsilon: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := binner.Anonymize(d, qids, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := dpblock.Publish(res, binner.Params()); err != nil {
		t.Fatal(err)
	}
	// A DP view must be padded before it can serialize: the wire form
	// carries only noised sizes and permuted handles, never true bin
	// membership.
	if _, err := dpblock.Pad(res); err != nil {
		t.Fatal(err)
	}
	views[binner.Name()] = res
	return views
}

// TestViewGoldenFiles pins the serialized form of every anonymizer mode:
// the writer's output must match the committed golden file byte for
// byte, and reading the golden back and re-writing it must be the
// identity (the format is canonical). Regenerate with `go test
// ./internal/anonymize -run TestViewGoldenFiles -update` after a
// deliberate format change.
func TestViewGoldenFiles(t *testing.T) {
	d := adult.Generate(120, 1)
	for name, res := range goldenViews(t) {
		path := filepath.Join("testdata", "golden_"+name+".view")
		var buf bytes.Buffer
		if err := anonymize.WriteView(&buf, d.Schema(), res); err != nil {
			t.Fatalf("%s: WriteView: %v", name, err)
		}
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden file (run with -update): %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("%s: serialized view diverged from %s", name, path)
		}
		parsed, err := anonymize.ReadView(bytes.NewReader(golden), d.Schema())
		if err != nil {
			t.Fatalf("%s: ReadView(golden): %v", name, err)
		}
		var again bytes.Buffer
		if err := anonymize.WriteView(&again, d.Schema(), parsed); err != nil {
			t.Fatalf("%s: rewrite: %v", name, err)
		}
		if !bytes.Equal(again.Bytes(), golden) {
			t.Errorf("%s: read→write is not the identity on the golden file", name)
		}
	}
}

// TestDPViewRoundTrip checks the DP release survives serialization
// exactly — parameters, level, every noised count — while the holder's
// secrets stay home: the noise seed is withheld and the padded member
// lists reveal no dummy surplus.
func TestDPViewRoundTrip(t *testing.T) {
	d := adult.Generate(120, 1)
	res := goldenViews(t)[dpblock.MethodName]
	var buf bytes.Buffer
	if err := anonymize.WriteView(&buf, d.Schema(), res); err != nil {
		t.Fatal(err)
	}
	got, err := anonymize.ReadView(&buf, d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if got.DP == nil {
		t.Fatal("DP release lost in round trip")
	}
	if got.DP.Epsilon != res.DP.Epsilon || got.DP.Delta != res.DP.Delta ||
		got.DP.Level != res.DP.Level {
		t.Fatalf("DP parameters changed: %+v vs %+v", got.DP, res.DP)
	}
	if got.DP.Seed != 0 {
		t.Fatalf("noise seed %d crossed the wire; a recipient could subtract the padding", got.DP.Seed)
	}
	if len(got.DP.NoisedCounts) != len(res.DP.NoisedCounts) {
		t.Fatal("noised count arity changed")
	}
	for i := range got.DP.NoisedCounts {
		if got.DP.NoisedCounts[i] != res.DP.NoisedCounts[i] {
			t.Fatalf("noised count %d changed: %d vs %d", i, got.DP.NoisedCounts[i], res.DP.NoisedCounts[i])
		}
		if int64(got.Classes[i].Size()) != got.DP.NoisedCounts[i] {
			t.Fatalf("class %d: wire member list has %d handles, published count %d",
				i, got.Classes[i].Size(), got.DP.NoisedCounts[i])
		}
	}
}

// TestDPViewUnpaddedRefused pins the boundary invariant: an un-padded DP
// view never serializes, so true bin sizes cannot leave the holder even
// by mistake.
func TestDPViewUnpaddedRefused(t *testing.T) {
	d := adult.Generate(120, 1)
	qids, err := d.Schema().Resolve(adult.TopQIDs(4))
	if err != nil {
		t.Fatal(err)
	}
	binner, err := dpblock.New(dpblock.Params{Epsilon: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := binner.Anonymize(d, qids, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := dpblock.Publish(res, binner.Params()); err != nil {
		t.Fatal(err)
	}
	padded := false
	for i, c := range res.Classes {
		padded = padded || res.DP.NoisedCounts[i] > int64(c.Size())
	}
	if !padded {
		t.Skip("noise draw added no padding; nothing to refuse")
	}
	var buf bytes.Buffer
	if err := anonymize.WriteView(&buf, d.Schema(), res); err == nil {
		t.Fatal("WriteView accepted a DP view whose member lists reveal true bin sizes")
	}
}

// TestTopDownViewHashes pins the published view of the two topDown
// anonymizers on larger Adult samples than the golden files hold: 3,000
// records at a fine and a coarse k, and BenchmarkTopDown's paper-scale input
// (20,108 records, k = 32). Child groups are keyed by value and ordered by
// their formatted key, and any change to either must leave every view
// byte-identical. The 3,000-record hashes were taken before child groups
// stopped formatting a key per member; the 20,108-record ones before
// specialize read path codes and integer interval indexes instead of
// climbing the taxonomy and hashing intervals.
func TestTopDownViewHashes(t *testing.T) {
	want := map[string]string{
		"Entropy/3000/2":   "3c47674aac8031f95c0116d926499e3ec0a8831a878c0408b22d5edde9c22eec",
		"Entropy/3000/32":  "cd43a1d168b79efa5552510fb4a34210f4ac74846f9188db0da213e4d210cd7b",
		"TDS/3000/2":       "2130084687b9b22a93447220d5f51f94077997f5a8851066ba00a6433a8de247",
		"TDS/3000/32":      "c5fb091df6346ec920aa0788c53188139d12eb3a03d897a719cfba9a9da223ac",
		"Entropy/20108/32": "1713886093ec4658276a2c8a84cd60bb8aad3baa4e91357fe703f8704b8ce179",
		"TDS/20108/32":     "b76f8a86abc8833a64b30b20c4962d950a0998aa30ee74babeea10018e631341",
	}
	for _, c := range []struct{ n, k int }{{3000, 2}, {3000, 32}, {20108, 32}} {
		d := adult.Generate(c.n, 7)
		qids, err := d.Schema().Resolve(adult.DefaultQIDs())
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []anonymize.Anonymizer{anonymize.NewMaxEntropy(), anonymize.NewTDS()} {
			name := fmt.Sprintf("%s/%d/%d", a.Name(), c.n, c.k)
			res, err := a.Anonymize(d, qids, c.k)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			h := sha256.New()
			if err := anonymize.WriteView(h, d.Schema(), res); err != nil {
				t.Fatalf("%s: WriteView: %v", name, err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
				t.Errorf("%s: view hash %s, want %s", name, got, want[name])
			}
		}
	}
}
