package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"pprl/internal/adult"
	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/match"
	"pprl/internal/smc"
)

// cleanups is the stack of things a run must undo on every exit path:
// worker processes to kill, listeners to close, temp dirs to remove.
type cleanups struct {
	mu    sync.Mutex
	funcs []func()
}

func (c *cleanups) add(f func()) {
	c.mu.Lock()
	c.funcs = append(c.funcs, f)
	c.mu.Unlock()
}

// run undoes everything registered, newest first, exactly once.
func (c *cleanups) run() {
	c.mu.Lock()
	fs := c.funcs
	c.funcs = nil
	c.mu.Unlock()
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i]()
	}
}

// env is what one workload run works with.
type env struct {
	root  string // checkout root
	tmp   string // this run's scratch directory, inside the checkout
	seed  int64
	sz    sizes
	ref   *refKernel
	clean *cleanups
	// canary makes the harness sabotage its own run so tests can show the
	// correctness check bites: "flip" flips one purchased verdict,
	// "drop" drops one delta. Empty in every real run.
	canary string
}

// newEnv creates the run's scratch directory under .bench_build/tmp in
// the checkout, so journals fsync on the same filesystem the program
// would use and nothing is written outside the checkout.
func newEnv(root string, seed int64, sz sizes, clean *cleanups) (*env, error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	clean.add(func() { os.RemoveAll(tmp) })
	return &env{root: root, tmp: tmp, seed: seed, sz: sz, ref: newRefKernel(sz.RefSamples), clean: clean}, nil
}

// relations is one generated pair of overlapping Adult relations with
// everything the harness derives from them: the rule, exact ground
// truth, and the digest that identifies the inputs.
type relations struct {
	alice, bob *dataset.Dataset
	schema     *dataset.Schema
	qidNames   []string
	qids       []int
	rule       *blocking.Rule
	spec       *smc.Spec
	truth      []match.Pair
	truthSet   map[int64]bool
	digest     string
}

// genRelations makes the inputs from the seed alone: the paper's
// construction (adult.Generate + dataset.SplitOverlap) over the five
// default quasi-identifiers at θ = 0.05.
func genRelations(records int, seed int64) (*relations, error) {
	full := adult.Generate(records, seed)
	alice, bob := dataset.SplitOverlap(full, rand.New(rand.NewSource(seed+1)))
	r := &relations{alice: alice, bob: bob, schema: alice.Schema(), qidNames: adult.DefaultQIDs()}
	var err error
	if r.qids, err = r.schema.Resolve(r.qidNames); err != nil {
		return nil, err
	}
	if r.rule, err = blocking.RuleFor(r.schema, r.qids, theta); err != nil {
		return nil, err
	}
	if r.spec, err = smc.SpecFromRule(r.rule, 1); err != nil {
		return nil, err
	}
	r.spec.Packing = smc.PackingPacked
	if r.truth, err = match.TruePairs(alice, bob, r.qids, r.rule); err != nil {
		return nil, err
	}
	r.truthSet = make(map[int64]bool, len(r.truth))
	for _, p := range r.truth {
		r.truthSet[p.Key(bob.Len())] = true
	}
	h := sha256.New()
	if err := alice.WriteCSV(h); err != nil {
		return nil, err
	}
	if err := bob.WriteCSV(h); err != nil {
		return nil, err
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

// encoded returns one holder's records in the SMC circuit's encoding.
func (r *relations) encoded(alice bool) [][]int64 {
	if alice {
		return smc.EncodeRecords(r.alice, r.qids, 1)
	}
	return smc.EncodeRecords(r.bob, r.qids, 1)
}

// oracle is the independent verdict reference: the plaintext evaluation
// of the exact rule over the same encoded records.
func (r *relations) oracle() *smc.PlainComparator {
	return smc.NewPlainComparator(r.spec, r.encoded(true), r.encoded(false))
}

// header identifies where and on what a result file was measured.
type header struct {
	Host         string            `json:"host"`
	NProc        int               `json:"nproc"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	GoVersion    string            `json:"go_version"`
	Commit       string            `json:"commit"`
	Seed         int64             `json:"seed"`
	Seconds      int               `json:"seconds"`
	Sizes        sizes             `json:"sizes"`
	RefNominalNs int64             `json:"ref_nominal_ns"`
	InputSHA256  map[string]string `json:"input_sha256"`
	When         string            `json:"when"`
}

func newHeader(root string, seed int64, seconds int, sz sizes) header {
	host, _ := os.Hostname()
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Seed: seed, Seconds: seconds, Sizes: sz,
		RefNominalNs: refNominalNs, InputSHA256: map[string]string{},
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// buildParty compiles cmd/pprl-party once into .bench_build/bin, with
// the Go build cache kept inside the checkout too.
func buildParty(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "pprl-party")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pprl-party")
	cmd.Dir = root
	cmd.Env = os.Environ()
	if os.Getenv("GOCACHE") == "" {
		cmd.Env = append(cmd.Env, "GOCACHE="+filepath.Join(root, ".bench_build", "gocache"))
	}
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/pprl-party failed: %v\n%s", err, out)
	}
	return bin, nil
}
