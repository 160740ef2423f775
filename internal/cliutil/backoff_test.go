package cliutil

import (
	"context"
	"net"
	"testing"
	"time"
)

// TestBackoffDelayGrowsAndCaps: delays double from 50ms and never exceed
// 2s·(1+jitter), even far past the cap attempt.
func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	for attempt := 0; attempt < 20; attempt++ {
		want := min(50*time.Millisecond<<uint(attempt), 2*time.Second)
		lo := time.Duration(float64(want) * 0.75)
		hi := time.Duration(float64(want) * 1.25)
		for trial := 0; trial < 50; trial++ {
			if d := backoff(attempt); d < lo || d > hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
}

// TestBackoffJitterSpreads: the jitter really spreads one attempt's
// delays across both sides of the nominal delay, so peers that failed
// together do not retry together.
func TestBackoffJitterSpreads(t *testing.T) {
	const nominal = 200 * time.Millisecond // attempt 2
	lo, hi := time.Duration(1<<62), time.Duration(0)
	for trial := 0; trial < 1000; trial++ {
		d := backoff(2)
		lo, hi = min(lo, d), max(hi, d)
	}
	if lo > nominal*9/10 || hi < nominal*11/10 {
		t.Fatalf("1000 delays at attempt 2 span only [%v, %v] around %v", lo, hi, nominal)
	}
}

// TestDialRetryConnectsToLateListener: the dialer keeps retrying while
// nothing is listening and connects once the listener appears.
func TestDialRetryConnectsToLateListener(t *testing.T) {
	// Reserve a port, then release it so the first dials fail.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	accepted := make(chan struct{})
	go func() {
		time.Sleep(60 * time.Millisecond)
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial side will time out and report
		}
		defer l2.Close()
		c, err := l2.Accept()
		if err == nil {
			c.Close()
			close(accepted)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := DialRetry(ctx, "tcp", addr)
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	c.Close()
	select {
	case <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("listener never accepted the retried dial")
	}
}

// TestDialRetryHonorsDeadline: with nobody listening, the dialer returns
// the context error once the deadline passes instead of spinning forever.
func TestDialRetryHonorsDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := DialRetry(ctx, "tcp", addr); err == nil {
		t.Fatal("DialRetry succeeded with no listener")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("DialRetry took %v to give up on a 50ms deadline", elapsed)
	}
}

// TestListenRetryBindsImmediately: the common case needs no retries.
func TestListenRetryBindsImmediately(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	l, err := ListenRetry(ctx, "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenRetry: %v", err)
	}
	l.Close()
}
