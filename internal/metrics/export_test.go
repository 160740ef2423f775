package metrics

import (
	"strings"
	"sync"
	"testing"
)

// TestRegistryPrometheusFormat: names are prefixed, HELP/TYPE lines
// precede each sample, and values reflect the atomic state.
func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry("pprl")
	c := r.Counter("jobs_submitted_total", "jobs accepted by the API")
	g := r.Gauge("jobs_running", "jobs currently executing")
	c.Add(3)
	g.Set(2)
	g.Add(-1)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP pprl_jobs_submitted_total jobs accepted by the API",
		"# TYPE pprl_jobs_submitted_total counter",
		"pprl_jobs_submitted_total 3",
		"# TYPE pprl_jobs_running gauge",
		"pprl_jobs_running 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// TYPE must precede the sample line for each metric.
	if strings.Index(out, "# TYPE pprl_jobs_running gauge") > strings.Index(out, "\npprl_jobs_running 1") {
		t.Errorf("TYPE line does not precede sample:\n%s", out)
	}
}

// TestRegistryReregisterReturnsSame: registering a name twice yields the
// same var, so packages can look metrics up idempotently.
func TestRegistryReregisterReturnsSame(t *testing.T) {
	r := NewRegistry("x")
	a := r.Counter("n", "first")
	b := r.Counter("n", "second help ignored")
	if a != b {
		t.Fatal("re-registration created a second var")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("vars not shared")
	}
}

// TestRegistryConcurrentUse: concurrent registration and updates are
// race-free (run under -race) and lose no increments.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry("pprl")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits_total", "")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "").Value(); got != 8000 {
		t.Fatalf("hits_total = %d, want 8000", got)
	}
}

// TestVarVecPrometheusFormat: labeled families render one sample line per
// observed label value under a single HELP/TYPE header, with Prometheus
// label-value quoting.
func TestVarVecPrometheusFormat(t *testing.T) {
	r := NewRegistry("pprl")
	chunks := r.CounterVec("worker_chunks_total", "worker", "SMC chunks completed per fleet worker.")
	beats := r.GaugeVec("worker_heartbeat_seconds", "worker", "Unix time of each worker's last heartbeat.")
	chunks.With("w1").Add(3)
	chunks.With("w2").Inc()
	beats.With(`we"ird\name`).Set(99)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP pprl_worker_chunks_total SMC chunks completed per fleet worker.",
		"# TYPE pprl_worker_chunks_total counter",
		`pprl_worker_chunks_total{worker="w1"} 3`,
		`pprl_worker_chunks_total{worker="w2"} 1`,
		"# TYPE pprl_worker_heartbeat_seconds gauge",
		`pprl_worker_heartbeat_seconds{worker="we\"ird\\name"} 99`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestVarVecWithReturnsSame: the same label value yields the same child,
// and a child's value is its sample's.
func TestVarVecWithReturnsSame(t *testing.T) {
	r := NewRegistry("x")
	v := r.CounterVec("chunks_total", "worker", "")
	if v != r.CounterVec("chunks_total", "worker", "other help") {
		t.Fatal("re-registration created a second vec")
	}
	a := v.With("w1")
	a.Add(2)
	if b := v.With("w1"); b != a || b.Value() != 2 {
		t.Fatal("children not shared per label value")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `x_chunks_total{worker="w1"} 2`+"\n") {
		t.Errorf("exposition lacks the child's sample:\n%s", b.String())
	}
}

// TestVarVecConcurrentUse: concurrent With and updates across goroutines
// are race-free and lose no increments.
func TestVarVecConcurrentUse(t *testing.T) {
	r := NewRegistry("pprl")
	vec := r.CounterVec("worker_chunks_total", "worker", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i%2))
			for j := 0; j < 1000; j++ {
				vec.With(name).Inc()
			}
		}(i)
	}
	wg.Wait()
	if got := vec.With("a").Value() + vec.With("b").Value(); got != 8000 {
		t.Fatalf("total = %d, want 8000", got)
	}
}
