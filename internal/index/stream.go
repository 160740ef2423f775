package index

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
)

// Emit consumes one surviving class pair and its label as the stream
// produces it. Returning an error aborts the stream. Pairs arrive
// row-major within one R class but interleaved across R classes when the
// stream runs parallel; consumers needing a global order should sort or
// use the result's UnknownGroupPairs, which is always (RI, SI)-sorted.
type Emit func(gp blocking.GroupPair, l blocking.Label) error

// Options tunes Stream.
type Options struct {
	// Workers caps the fan-out; ≤ 0 selects GOMAXPROCS. Small inputs run
	// serially regardless, mirroring blocking.Block.
	Workers int
	// Progress, when set, receives (R classes done, R classes total)
	// periodically and on completion. Calls are serialized but may come
	// from internal worker goroutines.
	Progress func(done, total int64)
}

// parallelThreshold matches blocking.Block's: class-pair counts below it
// stay serial to avoid goroutine overhead.
const parallelThreshold = 1 << 14

// pairEntry is a worker-local M or U observation awaiting merge.
type pairEntry struct{ ri, si int32 }

type emitRec struct {
	gp blocking.GroupPair
	l  blocking.Label
}

// Block is Stream without a consumer callback: the blocking step as
// every pipeline runs it.
func Block(r, s *anonymize.Result, rule *blocking.Rule) (*blocking.Result, error) {
	return Stream(r, s, rule, Options{}, nil)
}

// Stream runs indexed blocking over two anonymized views: it builds the
// inverted hierarchy index over s, intersects the per-attribute admission
// sets for each R class, evaluates the slack rule only on the surviving
// candidates, and emits each evaluated (GroupPair, Label) through emit
// (when non-nil). Pairs the index excludes are accounted as NonMatch
// record pairs without ever being enumerated. The returned result is
// label-identical to the exhaustive blocking.Block's — same counts, same
// Label(ri, si) for every class pair, same UnknownGroupPairs order.
func Stream(r, s *anonymize.Result, rule *blocking.Rule, opts Options, emit Emit) (*blocking.Result, error) {
	if err := blocking.ValidateViews(r, s, rule); err != nil {
		return nil, err
	}
	ix, err := New(s, rule)
	if err != nil {
		return nil, err
	}
	nR, nS := len(r.Classes), len(s.Classes)
	var totalS int64
	for si := range s.Classes {
		totalS += int64(s.Classes[si].Size())
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if nR*nS < parallelThreshold {
		workers = 1
	}

	b := blocking.NewBuilder(r, s)
	stats := &blocking.Stats{RClasses: nR, SClasses: nS, ClassPairs: int64(nR) * int64(nS)}
	attrAdmit := make([]int64, rule.Len())
	var totalEval int64
	stride := int64(nR / 100)
	if stride < 1 {
		stride = 1
	}

	var (
		wg       sync.WaitGroup
		nextRow  atomic.Int64
		rowsDone atomic.Int64
		aborted  atomic.Bool
		// mu guards the emit callback, progress reporting, and the merge
		// of worker-local tallies into the builder.
		mu      sync.Mutex
		emitErr error
	)
	worker := func() {
		defer wg.Done()
		var (
			cand, tmp  bitset
			localAdmit = make([]int64, rule.Len())
			localN     int64
			evaluated  int64
			matches    []pairEntry
			unknowns   []pairEntry
			emitBuf    []emitRec
		)
		if len(ix.constrained) > 0 {
			cand, tmp = newBitset(nS), newBitset(nS)
		}
		for !aborted.Load() {
			ri := int(nextRow.Add(1)) - 1
			if ri >= nR {
				break
			}
			rc := &r.Classes[ri]
			rcSize := int64(rc.Size())
			var candSize int64
			decide := func(si int) {
				sc := &s.Classes[si]
				l := rule.Decide(rc.Sequence, sc.Sequence)
				evaluated++
				candSize += int64(sc.Size())
				switch l {
				case blocking.Match:
					matches = append(matches, pairEntry{int32(ri), int32(si)})
				case blocking.Unknown:
					unknowns = append(unknowns, pairEntry{int32(ri), int32(si)})
				default:
					localN += rcSize * int64(sc.Size())
				}
				if emit != nil {
					emitBuf = append(emitBuf, emitRec{
						gp: blocking.GroupPair{RI: ri, SI: si, Pairs: rc.Size() * sc.Size()},
						l:  l,
					})
				}
			}
			if len(ix.constrained) == 0 {
				for si := 0; si < nS; si++ {
					decide(si)
				}
			} else {
				for k, ai := range ix.constrained {
					tmp.clear()
					ix.attrs[ai].admit(rc.Sequence[ai], tmp)
					localAdmit[ai] += tmp.popcount()
					if k == 0 {
						copy(cand, tmp)
					} else {
						cand.and(tmp)
					}
				}
				cand.forEach(decide)
			}
			// Everything the intersection dropped is a certain NonMatch:
			// rc's records against every S record not in a candidate class.
			localN += rcSize * (totalS - candSize)
			if len(emitBuf) > 0 {
				mu.Lock()
				for _, er := range emitBuf {
					if err := emit(er.gp, er.l); err != nil {
						emitErr = err
						aborted.Store(true)
						break
					}
				}
				mu.Unlock()
				emitBuf = emitBuf[:0]
			}
			if done := rowsDone.Add(1); done%stride == 0 && opts.Progress != nil {
				mu.Lock()
				opts.Progress(done, int64(nR))
				mu.Unlock()
			}
		}
		mu.Lock()
		for _, e := range matches {
			b.Observe(int(e.ri), int(e.si), blocking.Match)
		}
		for _, e := range unknowns {
			b.Observe(int(e.ri), int(e.si), blocking.Unknown)
		}
		b.AddNonMatched(localN)
		for i, v := range localAdmit {
			attrAdmit[i] += v
		}
		totalEval += evaluated
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	if emitErr != nil {
		return nil, fmt.Errorf("index: emit: %w", emitErr)
	}

	stats.RuleEvaluations = totalEval
	stats.PrunedClassPairs = stats.ClassPairs - totalEval
	stats.Attrs = make([]blocking.AttrStats, rule.Len())
	for i := range stats.Attrs {
		a := blocking.AttrStats{
			Name:     rule.Metric(i).Name(),
			Indexed:  ix.attrs[i] != nil,
			Admitted: attrAdmit[i],
		}
		if !a.Indexed {
			a.Admitted = stats.ClassPairs
		}
		stats.Attrs[i] = a
	}
	if opts.Progress != nil {
		opts.Progress(int64(nR), int64(nR))
	}
	return b.Result(stats), nil
}
