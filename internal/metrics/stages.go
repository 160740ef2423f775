package metrics

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// clock is the stage clock's time source; tests replace it.
var clock = time.Now

// Stage is the wall-clock time charged to one stage of a run.
type Stage struct {
	Name string        `json:"stage"`
	Time time.Duration `json:"ns"`
}

// Times lists the stages of a run in the order each first reported.
type Times []Stage

// Of returns the time charged to stage; zero if it never reported.
func (t Times) Of(stage string) time.Duration {
	for _, s := range t {
		if s.Name == stage {
			return s.Time
		}
	}
	return 0
}

// Add adds u's stage times to t's, by name, and returns t.
func (t Times) Add(u Times) Times {
	for _, s := range u {
		i := slices.IndexFunc(t, func(x Stage) bool { return x.Name == s.Name })
		if i < 0 {
			t, i = append(t, Stage{Name: s.Name}), len(t)
		}
		t[i].Time += s.Time
	}
	return t
}

// String renders every stage as name=duration, in order.
func (t Times) String() string {
	parts := make([]string, len(t))
	for i, s := range t {
		parts[i] = fmt.Sprintf("%s=%v", s.Name, s.Time)
	}
	return strings.Join(parts, " ")
}

// Position is the latest (stage, done, total) event a recorder saw.
type Position struct {
	Stage       string
	Done, Total int64
}

// Stages is a stage clock fed by progress events; Report has the shape of
// core.Config.Progress. Every event charges the time since the event
// before it to its own stage, so a stage runs from the previous stage's
// last event to its own last event, the stages tile the run, and
// repeated events of one stage add up. The clock starts at Begin or, if
// nothing began it, at the first event. The zero value is ready to use,
// and every method is safe for concurrent use.
type Stages struct {
	mu    sync.Mutex
	mark  time.Time
	times Times
	at    Position
}

// Begin restarts the clock: the gap since the last event is charged to
// no stage.
func (s *Stages) Begin() {
	s.mu.Lock()
	s.mark = clock()
	s.mu.Unlock()
}

// Report charges the time since the last event (or Begin) to stage and
// records (stage, done, total) as the position.
func (s *Stages) Report(stage string, done, total int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := clock()
	if s.mark.IsZero() {
		s.mark = now
	}
	d := now.Sub(s.mark)
	s.mark = now
	s.at = Position{Stage: stage, Done: done, Total: total}
	for i := len(s.times) - 1; i >= 0; i-- {
		if s.times[i].Name == stage {
			s.times[i].Time += d
			return
		}
	}
	s.times = append(s.times, Stage{Name: stage, Time: d})
}

// Snapshot returns the latest position (Stage is empty before the first
// event) and a copy of the stage times.
func (s *Stages) Snapshot() (Position, Times) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.at, slices.Clone(s.times)
}
