//go:build unix

package experiment

import (
	"runtime"
	"syscall"
	"testing"
	"time"
)

// maxCoresBusy bounds the process's CPU seconds per wall second across a
// Timing call. The secure link dominates the call and runs under
// GOMAXPROCS(1), so the process keeps about one core busy (≈ 1.0; the
// short plaintext link before it runs at the host's setting); the same
// link left on two cores keeps both busy for most of the call (≈ 1.6–1.9
// on an idle 2-vCPU host).
const maxCoresBusy = 1.25

// TestTimingPerPairIsOneCore: the secure-comparison row is one core's cost
// per pair, and Timing hands GOMAXPROCS back as it found it. The property
// is read from the process's own CPU time (getrusage), not inferred from
// wall clocks: on a shared host a second core often buys a parallel run
// nothing, so comparing timings at GOMAXPROCS 1 and 2 said little either
// way.
func TestTimingPerPairIsOneCore(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("one CPU: no second core to leak onto")
	}
	if testing.Short() {
		t.Skip("times a secure link")
	}
	host := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(host)
	procs := max(2, host)
	runtime.GOMAXPROCS(procs)
	cpu0, wall0 := cpuTime(t), time.Now()
	if _, err := Timing(smallOpts(), 512, 400); err != nil {
		t.Fatal(err)
	}
	cpu, wall := cpuTime(t)-cpu0, time.Since(wall0)
	if got := runtime.GOMAXPROCS(0); got != procs {
		t.Fatalf("Timing left GOMAXPROCS at %d, want %d", got, procs)
	}
	if busy := cpu.Seconds() / wall.Seconds(); busy > maxCoresBusy {
		t.Errorf("Timing burned %v of CPU in %v (%.2f cores busy, at most %v): the secure link runs on more than one core", cpu, wall, busy, maxCoresBusy)
	}
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
