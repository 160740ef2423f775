package testkit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pprl/internal/core"
	"pprl/internal/incremental"
	"pprl/internal/journal"
)

// TestLivePowerLoss judges the live dataset's durability bound (DESIGN.md
// §8): inside an open batch frame the journal writes its windows but only
// the commit fsyncs, so a power loss may take anything the frame wrote
// past the last commit. On the conformance worlds, with the tier off and
// on and at SyncEvery 1 and 64, a schedule is journaled through a real
// writer, the file imaged after every applied batch — durable up to its
// commit — and the run crashed inside a later batch. Every image a power
// loss can leave — the durable one, each frame boundary the crash had
// written past it, one byte inside a frame, and the whole written tail
// with its last 4 KiB zeroed — is reopened and the schedule re-appended.
// The deltas exposed before the crash and after it must be the uncrashed
// run's, each once; every committed batch must replay buying nothing; the
// pool must end where the uncrashed run's does; and no more than the
// crashed batch's pairs may be bought again. The full written tail is also
// what a kill leaves, and it must hold all but at most SyncEvery of the
// crashed batch's purchases.
func TestLivePowerLoss(t *testing.T) {
	seed := baseSeed(t)
	for n := 0; n < min(worldCount(t), 8); n++ {
		w := Generate(seed + int64(n))
		for _, tier := range []core.TierMode{core.TierOff, core.TierBloom} {
			for _, every := range []int{1, 64} {
				if err := powerLossArm(t, w, incrementalSteps(w), tier, every); err != nil {
					t.Fatal(repro(t, w, fmt.Errorf("tier %v, SyncEvery %d: %w", tier, every, err)))
				}
			}
		}
	}
}

// frameCrash kills the run inside batch target once n of its verdicts are
// journaled — at the next purchase, or at the commit when there is none —
// as firstFrameCrash kills it at the first frame's commit.
type frameCrash struct {
	*journal.Writer
	target, n int
	batch     int // the open frame's batch
	journaled int // purchases journaled into the target frame
}

func (c *frameCrash) RecordBatch(m journal.BatchMark) error {
	c.batch = int(m.Batch)
	return c.Writer.RecordBatch(m)
}

func (c *frameCrash) Record(i, j int, matched bool) error {
	if c.batch == c.target {
		if c.journaled == c.n {
			return ErrCrash
		}
		c.journaled++
	}
	return c.Writer.Record(i, j, matched)
}

func (c *frameCrash) RecordBatchCommit(b journal.BatchCommit) error {
	if int(b.Batch) == c.target {
		return ErrCrash
	}
	return c.Writer.RecordBatchCommit(b)
}

// livePass is one engine's pass over a schedule: per applied batch, its
// result and what it bought.
type livePass struct {
	eng     *incremental.Engine
	results []*incremental.BatchResult
	bought  []int64
}

// exposed lists the pass's delta pairs, skipping replayed batches (their
// deltas were exposed in an earlier life).
func (p *livePass) exposed() [][2]int {
	var out [][2]int
	for _, r := range p.results {
		for _, d := range r.Deltas {
			if !r.Replayed {
				out = append(out, [2]int{d.I, d.J})
			}
		}
	}
	return out
}

// runLive applies steps until one fails; image, when set, sees the journal
// after New and after each applied batch.
func runLive(w *World, cfg incremental.Config, steps []incStep, image func()) (*livePass, error) {
	eng, err := incremental.New(w.Alice.Schema(), cfg)
	if err != nil {
		return nil, err
	}
	p := &livePass{eng: eng}
	for _, s := range steps {
		if image != nil {
			image()
		}
		before := eng.Stats().Purchased
		res, err := eng.Append(s.side, s.recs)
		if err != nil {
			return p, err
		}
		p.results = append(p.results, res)
		p.bought = append(p.bought, eng.Stats().Purchased-before)
	}
	return p, nil
}

func powerLossArm(t *testing.T, w *World, steps []incStep, tier core.TierMode, every int) error {
	cfg := incrementalConfigFor(w)
	cfg.Tier = tier
	ref, err := runLive(w, cfg, steps, nil)
	if err != nil {
		return fmt.Errorf("uncrashed run: %w", err)
	}
	target := 0 // the batch that buys the most
	for b, n := range ref.bought {
		if n > ref.bought[target] {
			target = b
		}
	}
	if ref.bought[target] == 0 {
		return nil // nothing bought, nothing to lose
	}
	var later int64 // what the uncrashed run buys from the crashed batch on
	for _, n := range ref.bought[target:] {
		later += n
	}

	// Odd worlds crash at the batch's middle purchase, even ones at its
	// commit, with every purchase journaled.
	n := int(ref.bought[target]+w.Seed%2) / (1 + int(w.Seed%2))
	dir := t.TempDir()
	path := filepath.Join(dir, "live.wal")
	wr, err := journal.Create(path, journal.Options{SyncEvery: every})
	if err != nil {
		return err
	}
	crash := &frameCrash{Writer: wr, target: target, n: n}
	var durable []byte
	ccfg := cfg
	ccfg.Journal = crash
	first, err := runLive(w, ccfg, steps, func() {
		image, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		durable = image
	})
	if !errors.Is(err, ErrCrash) || len(first.results) != target {
		return fmt.Errorf("crash at %d verdicts of batch %d: run stopped after %d batches with %v", n, target, len(first.results), err)
	}
	written, err := os.ReadFile(path) // the window the crash held is lost
	if err != nil {
		return err
	}
	wr.Close()
	if len(written) < len(durable) || string(written[:len(durable)]) != string(durable) {
		return fmt.Errorf("the file at the crash (%d bytes) does not extend its last committed image (%d bytes)", len(written), len(durable))
	}

	// The images: every frame boundary from the durable length to the
	// written one (the last is what a kill leaves), the first frame
	// past the durable image cut in its middle, and the written tail
	// with its last 4 KiB zeroed.
	type image struct {
		name   string
		data   []byte
		killed bool
	}
	var images []image
	for off := len(durable); ; {
		images = append(images, image{fmt.Sprintf("cut at byte %d", off), written[:off], off == len(written)})
		if off == len(written) {
			break
		}
		size := 4 + int(binary.LittleEndian.Uint32(written[off:])) + 4
		if off == len(durable) {
			images = append(images, image{"cut mid-frame", written[:off+size/2], false})
		}
		off += size
	}
	if len(written) > len(durable) {
		zeroed := slices.Clone(written)
		clear(zeroed[max(len(durable), len(zeroed)-4096):])
		images = append(images, image{"tail zeroed", zeroed, false})
	}

	for _, im := range images {
		if err := resumeImage(w, cfg, steps, every, filepath.Join(dir, "resume.wal"), im.data, im.killed, crashed{first, target, n}, ref, later); err != nil {
			return fmt.Errorf("crash at %d of batch %d's %d purchases (%d of %d bytes durable), %s: %w",
				n, target, ref.bought[target], len(durable), len(written), im.name, err)
		}
	}
	return nil
}

// crashed is the first life: what it applied before it died in batch
// target with n of that batch's purchases journaled.
type crashed struct {
	first     *livePass
	target, n int
}

// resumeImage reopens one image the crash can leave (killed: the whole
// written file) and holds the second life to the uncrashed run ref, which
// buys later pairs from the crashed batch on.
func resumeImage(w *World, cfg incremental.Config, steps []incStep, every int, path string, image []byte, killed bool, c crashed, ref *livePass, later int64) error {
	if err := os.WriteFile(path, image, 0o644); err != nil {
		return err
	}
	defer os.Remove(path)
	rw, err := journal.Open(path, journal.Options{SyncEvery: every})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	rec := rw.Recovered()
	if killed && rec != nil {
		kept := 0
		if len(rec.Batches) > c.target {
			kept = len(rec.Batches[c.target].Verdicts)
		}
		if c.n-kept > every {
			rw.Close()
			return fmt.Errorf("a kill lost %d of the crashed batch's %d journaled purchases, more than SyncEvery", c.n-kept, c.n)
		}
	}
	cfg.Journal, cfg.Recovered = rw, rec
	second, err := runLive(w, cfg, steps, nil)
	if cerr := rw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("resumed run: %w", err)
	}
	for b, r := range second.results[:c.target] {
		if !r.Replayed || second.bought[b] != 0 {
			return fmt.Errorf("committed batch %d: replayed %v, bought %d", b, r.Replayed, second.bought[b])
		}
	}
	got, want := append(c.first.exposed(), second.exposed()...), ref.exposed()
	slices.SortFunc(got, cmpPair)
	slices.SortFunc(want, cmpPair)
	if !slices.Equal(got, want) {
		return fmt.Errorf("exposed %d deltas over both lives, the uncrashed run %d (or one twice)", len(got), len(want))
	}
	st, rst := second.eng.Stats(), ref.eng.Stats()
	switch {
	case st.Used != rst.Used:
		return fmt.Errorf("pool used %d, the uncrashed run %d", st.Used, rst.Used)
	case st.Purchased+st.Replayed != st.Used:
		return fmt.Errorf("purchased %d + replayed %d ≠ used %d", st.Purchased, st.Replayed, st.Used)
	case st.Purchased > later:
		return fmt.Errorf("bought %d pairs again: the uncrashed run buys %d from batch %d on", st.Purchased, later, c.target)
	}
	return nil
}

func cmpPair(a, b [2]int) int { return slices.Compare(a[:], b[:]) }
