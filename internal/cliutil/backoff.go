package cliutil

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"
)

// The retry schedule: delays grow geometrically from backoffBase by
// backoffFactor per attempt up to backoffMax, each spread by ±backoffJitter
// of itself, so parties that start in arbitrary order (holders dialing
// the querying party, a daemon rebinding a port still in TIME_WAIT) retry
// without hammering a fixed interval or retrying in lockstep.
const (
	backoffBase   = 50 * time.Millisecond
	backoffMax    = 2 * time.Second
	backoffFactor = 2
	backoffJitter = 0.25
)

// backoff returns the jittered delay for a 0-based attempt number.
func backoff(attempt int) time.Duration {
	d := float64(backoffBase)
	for i := 0; i < attempt && d < float64(backoffMax); i++ {
		d *= backoffFactor
	}
	d = min(d, float64(backoffMax))
	// Spread the delay over [d·(1−jitter), d·(1+jitter)].
	d *= 1 + backoffJitter*(2*rand.Float64()-1)
	return time.Duration(d)
}

// retry runs op with backoff until it succeeds or ctx ends. The context
// carries the deadline: a caller that wants "give up after a minute"
// passes context.WithTimeout.
func retry(ctx context.Context, what string, op func() error) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%s: %w (last attempt: %v)", what, err, lastErr)
			}
			return fmt.Errorf("%s: %w", what, err)
		}
		if lastErr = op(); lastErr == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: %w (last attempt: %v)", what, ctx.Err(), lastErr)
		case <-time.After(backoff(attempt)):
		}
	}
}

// DialRetry dials addr with exponential backoff and jitter until it
// connects or ctx ends. The peer may not be listening yet when the
// parties start in arbitrary order.
func DialRetry(ctx context.Context, network, addr string) (net.Conn, error) {
	var conn net.Conn
	var d net.Dialer
	err := retry(ctx, "dial "+addr, func() error {
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return err
		}
		conn = c
		return nil
	})
	return conn, err
}

// ListenRetry binds addr with exponential backoff and jitter until it
// succeeds or ctx ends. A daemon restarted immediately after a crash may
// find its port briefly unavailable; retrying the bind makes restarts
// (the whole point of journal-backed recovery) reliable.
func ListenRetry(ctx context.Context, network, addr string) (net.Listener, error) {
	var l net.Listener
	var lc net.ListenConfig
	err := retry(ctx, "listen "+addr, func() error {
		got, err := lc.Listen(ctx, network, addr)
		if err != nil {
			return err
		}
		l = got
		return nil
	})
	return l, err
}
