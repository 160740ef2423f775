package metrics

import (
	"errors"
	"strings"
	"testing"
)

// TestExpositionFormat: each family's HELP and TYPE lines precede its
// samples, labels render quoted, values print as plain numbers, and a
// family without help has no HELP line.
func TestExpositionFormat(t *testing.T) {
	var b strings.Builder
	e := &Exposition{W: &b}
	e.Family("pprl_jobs_submitted_total", "counter", "jobs accepted by the API")
	e.Sample("pprl_jobs_submitted_total", "", 3)
	e.Family("pprl_jobs_running", "gauge", "")
	e.Sample("pprl_jobs_running", "", 1)
	e.Family("pprl_stage_seconds_total", "counter", "Seconds per stage.")
	e.Sample("pprl_stage_seconds_total", Label("stage", `we"ird\name`), 0.25)
	e.Sample("pprl_stage_seconds_total", Label("stage", "smc"), 1234567)
	if e.Err() != nil {
		t.Fatal(e.Err())
	}
	want := "# HELP pprl_jobs_submitted_total jobs accepted by the API\n" +
		"# TYPE pprl_jobs_submitted_total counter\n" +
		"pprl_jobs_submitted_total 3\n" +
		"# TYPE pprl_jobs_running gauge\n" +
		"pprl_jobs_running 1\n" +
		"# HELP pprl_stage_seconds_total Seconds per stage.\n" +
		"# TYPE pprl_stage_seconds_total counter\n" +
		`pprl_stage_seconds_total{stage="we\"ird\\name"} 0.25` + "\n" +
		`pprl_stage_seconds_total{stage="smc"} 1234567` + "\n"
	if got := b.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// failingWriter fails every write.
type failingWriter struct{ n int }

func (w *failingWriter) Write([]byte) (int, error) {
	w.n++
	return 0, errors.New("disk gone")
}

// TestExpositionKeepsFirstError: after a failed write the exposition
// writes nothing more and reports that error.
func TestExpositionKeepsFirstError(t *testing.T) {
	w := new(failingWriter)
	e := &Exposition{W: w}
	e.Family("x", "counter", "help")
	e.Sample("x", "", 1)
	e.Histogram("y", "", new(Histogram))
	if e.Err() == nil || w.n != 1 {
		t.Errorf("err %v after %d writes, want the first error after one", e.Err(), w.n)
	}
}
