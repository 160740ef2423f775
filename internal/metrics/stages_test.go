package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// fakeClock is a clock the test advances by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// newFakeStages returns a recorder whose clock the test moves.
func newFakeStages(t *testing.T) (*Stages, *fakeClock) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	clock = func() time.Time { return c.t }
	t.Cleanup(func() { clock = time.Now })
	return new(Stages), c
}

// TestStagesTileTheRun: every gap between two events is charged to the
// later event's stage, so the stages sum to the time from the first event
// to the last, and a repeated stage adds its spans up.
func TestStagesTileTheRun(t *testing.T) {
	s, c := newFakeStages(t)
	first := c.t
	steps := []struct {
		gap   time.Duration
		stage string
	}{
		{0, "a"}, {3 * time.Millisecond, "a"}, {5 * time.Millisecond, "b"},
		{7 * time.Millisecond, "b"}, {11 * time.Millisecond, "c"}, {13 * time.Millisecond, "b"},
	}
	for i, st := range steps {
		c.advance(st.gap)
		s.Report(st.stage, int64(i), int64(len(steps)))
	}
	pos, times := s.Snapshot()
	want := Times{{"a", 3 * time.Millisecond}, {"b", (5 + 7 + 13) * time.Millisecond}, {"c", 11 * time.Millisecond}}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	var sum time.Duration
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("stage %d = %+v, want %+v", i, times[i], want[i])
		}
		sum += times[i].Time
	}
	if sum != c.t.Sub(first) {
		t.Errorf("stages sum to %v, the run took %v", sum, c.t.Sub(first))
	}
	if pos != (Position{Stage: "b", Done: 5, Total: 6}) {
		t.Errorf("position = %+v, want the last event", pos)
	}
	if times.Of("b") != 25*time.Millisecond || times.Of("missing") != 0 {
		t.Errorf("Of: b=%v missing=%v", times.Of("b"), times.Of("missing"))
	}
	if got := times.String(); got != "a=3ms b=25ms c=11ms" {
		t.Errorf("String() = %q", got)
	}
}

// TestStagesBeginSkipsIdleGap: Begin starts the clock, and a later Begin
// leaves the gap since the last event out of every stage.
func TestStagesBeginSkipsIdleGap(t *testing.T) {
	s, c := newFakeStages(t)
	s.Begin()
	c.advance(2 * time.Second)
	s.Report("ingest", 1, 1) // charged from Begin
	c.advance(time.Hour)     // idle between batches
	s.Begin()
	c.advance(3 * time.Second)
	s.Report("ingest", 1, 1)
	c.advance(time.Second)
	s.Report("commit", 1, 1)
	_, times := s.Snapshot()
	want := Times{{"ingest", 5 * time.Second}, {"commit", time.Second}}
	if len(times) != 2 || times[0] != want[0] || times[1] != want[1] {
		t.Errorf("times = %v, want %v", times, want)
	}
}

// TestStagesZeroValue: before any event the position is empty and there
// are no times; the snapshot is a copy the recorder does not write.
func TestStagesZeroValue(t *testing.T) {
	var s Stages
	if pos, times := s.Snapshot(); pos.Stage != "" || len(times) != 0 {
		t.Errorf("fresh recorder: %+v %v", pos, times)
	}
	s.Report("a", 0, 1)
	_, times := s.Snapshot()
	s.Report("a", 1, 1)
	times[0].Time = -1
	if _, again := s.Snapshot(); again[0].Time < 0 {
		t.Error("the snapshot aliases the recorder's list")
	}
}

// TestStagesJSON: each stage travels as {"stage": name, "ns": integer}.
func TestStagesJSON(t *testing.T) {
	in := Times{{"smc", 7 * time.Nanosecond}, {"blocking", 3 * time.Millisecond}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[{"stage":"smc","ns":7},{"stage":"blocking","ns":3000000}]`; string(data) != want {
		t.Errorf("wire form = %s, want %s", data, want)
	}
}

// TestStagesConcurrentSnapshot: reports racing snapshots is clean under
// -race, and no report is lost.
func TestStagesConcurrentSnapshot(t *testing.T) {
	var s Stages
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range 2000 {
			s.Report([2]string{"a", "b"}[i%2], int64(i), 2000)
		}
	}()
	go func() {
		defer wg.Done()
		for range 2000 {
			pos, times := s.Snapshot()
			if pos.Stage != "" && len(times) == 0 {
				t.Error("a position without times")
				return
			}
		}
	}()
	wg.Wait()
	if pos, times := s.Snapshot(); pos.Done != 1999 || len(times) != 2 {
		t.Errorf("after the race: %+v %v", pos, times)
	}
}
