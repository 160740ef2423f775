package metrics

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Registry is a small operational-metrics registry: named atomic
// counters and gauges, rendered in the Prometheus text exposition
// format. It exists so the job service exposes /metrics from the stdlib
// alone; swapping in a real client library later means replacing this
// file, not the call sites.
//
// Registering is not hot-path work and takes a lock; Add/Set on the
// returned vars are lock-free atomics safe for concurrent use.
type Registry struct {
	// namespace prefixes every exported name ("pprl" → "pprl_jobs_…").
	namespace string

	mu   sync.Mutex
	vars map[string]*Var
	vecs map[string]*VarVec
	// order preserves registration order for stable /metrics output.
	order []string
}

// Var is one exported metric: an atomic int64 with Prometheus metadata.
type Var struct {
	name string // fully prefixed
	help string
	typ  string // "counter" or "gauge"
	v    atomic.Int64
}

// Add increments the metric by n.
func (v *Var) Add(n int64) { v.v.Add(n) }

// Inc increments the metric by one.
func (v *Var) Inc() { v.v.Add(1) }

// Set stores an absolute value; meaningful for gauges.
func (v *Var) Set(n int64) { v.v.Store(n) }

// Value returns the current value.
func (v *Var) Value() int64 { return v.v.Load() }

// NewRegistry creates a registry whose metric names are prefixed with
// namespace and an underscore (empty namespace = bare names).
func NewRegistry(namespace string) *Registry {
	return &Registry{
		namespace: namespace,
		vars:      make(map[string]*Var),
		vecs:      make(map[string]*VarVec),
	}
}

// Counter registers (or returns the existing) monotonically increasing
// metric. The name must be a valid Prometheus metric name fragment
// (lowercase, underscores).
func (r *Registry) Counter(name, help string) *Var { return r.register(name, help, "counter") }

// Gauge registers (or returns the existing) up-and-down metric.
func (r *Registry) Gauge(name, help string) *Var { return r.register(name, help, "gauge") }

func (r *Registry) register(name, help, typ string) *Var {
	full := name
	if r.namespace != "" {
		full = r.namespace + "_" + name
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[full]; ok {
		return v
	}
	v := &Var{name: full, help: help, typ: typ}
	r.vars[full] = v
	r.order = append(r.order, full)
	return v
}

// VarVec is a labeled metric family: one metric name, one label key, and
// an atomic Var per observed label value — enough for the per-worker
// fleet counters (`pprl_worker_chunks_total{worker="w1"}`) without
// growing into a full label-set model. With is lock-guarded but cheap;
// hot paths should hold onto the returned *Var.
type VarVec struct {
	name  string // fully prefixed
	help  string
	typ   string // "counter" or "gauge"
	label string

	mu       sync.Mutex
	children map[string]*Var
	order    []string
}

// CounterVec registers (or returns the existing) labeled counter family.
func (r *Registry) CounterVec(name, label, help string) *VarVec {
	return r.registerVec(name, label, help, "counter")
}

// GaugeVec registers (or returns the existing) labeled gauge family.
func (r *Registry) GaugeVec(name, label, help string) *VarVec {
	return r.registerVec(name, label, help, "gauge")
}

func (r *Registry) registerVec(name, label, help, typ string) *VarVec {
	full := name
	if r.namespace != "" {
		full = r.namespace + "_" + name
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vecs[full]; ok {
		return v
	}
	v := &VarVec{name: full, help: help, typ: typ, label: label, children: make(map[string]*Var)}
	r.vecs[full] = v
	r.order = append(r.order, full)
	return v
}

// With returns the child Var for one label value, creating it on first
// use. Children render in first-use order.
func (v *VarVec) With(value string) *Var {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[value]; ok {
		return c
	}
	c := &Var{name: fmt.Sprintf("%s{%s=%q}", v.name, v.label, value), help: v.help, typ: v.typ}
	v.children[value] = c
	v.order = append(v.order, value)
	return c
}

// snapshot returns the children in first-use order.
func (v *VarVec) snapshot() []*Var {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*Var, len(v.order))
	for i, val := range v.order {
		out[i] = v.children[val]
	}
	return out
}

// WritePrometheus renders every metric in the text exposition format:
//
//	# HELP name help
//	# TYPE name counter
//	name value
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	vars := make([]*Var, len(names))
	vecs := make([]*VarVec, len(names))
	for i, n := range names {
		vars[i] = r.vars[n]
		vecs[i] = r.vecs[n]
	}
	r.mu.Unlock()
	header := func(name, help, typ string) error {
		if help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
		return err
	}
	for i := range names {
		if v := vars[i]; v != nil {
			if err := header(v.name, v.help, v.typ); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", v.name, v.Value()); err != nil {
				return err
			}
			continue
		}
		vec := vecs[i]
		if err := header(vec.name, vec.help, vec.typ); err != nil {
			return err
		}
		// A family with no observed label values renders as just its
		// HELP/TYPE header, matching Prometheus client conventions.
		for _, c := range vec.snapshot() {
			if _, err := fmt.Fprintf(w, "%s %d\n", c.name, c.Value()); err != nil {
				return err
			}
		}
	}
	return nil
}
