package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, recorded from outside the program at a
// seam its API offers. Spans of one pass share a trace id; Parent is the
// id of the span that caused this one (0 for a root).
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Trace    int64  `json:"trace"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the workload
// ends. A nil tracer records nothing, which is how the untraced pass
// runs the same code.
type tracer struct {
	workload string
	trace    int64
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string, seed int64) *tracer {
	return &tracer{workload: workload, trace: seed, t0: time.Now()}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Trace: t.trace, ID: id, Parent: parent, StartNs: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere (a stage
// between two Progress events, a chunk between a write and its reply).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Trace: t.trace, ID: id, Parent: parent,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
	return id
}

// bounds returns when the latest span with the name started and ended.
func (t *tracer) bounds(name string) (start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.Name == name {
			return t.t0.Add(time.Duration(s.StartNs)), t.t0.Add(time.Duration(s.EndNs))
		}
	}
	return
}

// self is a layer's self time: the spans with the name, minus the part
// of each interval its direct children cover (overlapping children are
// merged first, so concurrent children are not subtracted twice).
func (t *tracer) self(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	var total int64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		total += s.EndNs - s.StartNs
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var curLo, curHi int64 = 0, -1
		for _, k := range iv {
			lo, hi := max(k[0], s.StartNs), min(k[1], s.EndNs)
			if hi <= lo {
				continue
			}
			if curHi < 0 || lo > curHi {
				if curHi >= 0 {
					total -= curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi >= 0 {
			total -= curHi - curLo
		}
	}
	return time.Duration(total)
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(root string) error {
	if t == nil {
		return nil
	}
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), raw, 0o644)
}
