package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestBinarySecondSignal builds pprl-link and interrupts a secure run
// twice: the first SIGINT starts the drain of the in-flight chunk (seconds
// at 2048-bit keys on one lane), and the second must end the process by
// the signal's default disposition instead of waiting the drain out.
func TestBinarySecondSignal(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "pprl-link")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	a, b := writePairN(t, 600)
	wal := filepath.Join(t.TempDir(), "run.wal")
	var out bytes.Buffer
	cmd := exec.Command(bin, "-a", a, "-b", b, "-secure", "-keybits", "2048", "-smc-workers", "1", "-journal", wal)
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() { waitErr = cmd.Wait(); close(exited) }()
	// output stops the run, so nothing writes the buffer any more, and
	// returns what it printed.
	output := func() string {
		cmd.Process.Kill()
		<-exited
		return out.String()
	}
	defer output()

	// The journal holds its manifest before the first purchase and grows
	// when a chunk of verdicts is delivered; once it has grown and then
	// stayed the same for 100 ms, the next chunk (≈ 1.6 s on two cores) is
	// being bought, so the drain the first signal starts is still running
	// when the second arrives.
	var manifest, size int64
	changed := time.Now()
	for deadline := changed.Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		select {
		case <-exited:
			t.Fatalf("run ended before it was interrupted: %v\n%s", waitErr, output())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no verdict journaled within a minute")
		}
		fi, err := os.Stat(wal)
		if err != nil || fi.Size() == 0 {
			continue
		}
		if manifest == 0 {
			manifest = fi.Size()
		}
		if fi.Size() != size {
			size, changed = fi.Size(), time.Now()
		} else if size > manifest && time.Since(changed) >= 100*time.Millisecond {
			break
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("second SIGINT: %v (the run ended within 0.3 s of the first)\n%s", err, output())
	}
	select {
	case <-exited:
	case <-time.After(time.Second):
		t.Fatalf("still running 1 s after the second SIGINT\n%s", output())
	}
	ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGINT {
		t.Errorf("exit %v, want death by the second SIGINT\n%s", cmd.ProcessState, out.String())
	}
}
