// Package retry holds the two primitives every retry loop in the tree
// shares: the capped-exponential backoff ceiling and a context-aware
// sleep. The loops themselves stay with their owners — blobstore's
// carries the breaker, hedging and per-request stats, otlp's the
// stop-channel rule, the sealer's is a per-segment schedule — and each
// applies its own jitter (or none) on top of Backoff.
package retry

import (
	"context"
	"time"
)

// Backoff returns the delay ceiling before retry attempt (1 = the first
// retry): base doubled once per earlier attempt, capped at max.
func Backoff(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// Sleep waits d, or returns ctx's error as soon as ctx is done.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
