package blobstore

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"loggrep/internal/obsv"
	"loggrep/internal/retry"
)

// Policy configures the fault middleware around a backend. The zero
// value of every field picks the documented default; negative values
// disable the feature where noted.
type Policy struct {
	// MaxAttempts is the total backend attempts per operation, the first
	// one included (default 3; 1 disables retries). Only retryable
	// failures are re-attempted; terminal errors and caller cancellation
	// return immediately.
	MaxAttempts int
	// AttemptTimeout bounds each attempt (default 2s; negative disables).
	// An attempt that outlives it is abandoned and retried — the shape of
	// a read wedged on a sick disk or a stuck remote connection. The
	// caller's own context deadline still bounds the whole operation.
	AttemptTimeout time.Duration
	// BackoffBase seeds the exponential backoff between retries (default
	// 25ms): before retry n the policy sleeps a uniformly random duration
	// in [0, min(BackoffMax, BackoffBase·2ⁿ)) — "full jitter", so a
	// thundering herd of failed readers decorrelates instead of
	// re-stampeding in sync.
	BackoffBase time.Duration
	// BackoffMax caps the backoff growth (default 1s).
	BackoffMax time.Duration
	// BreakerFailures opens the circuit breaker after this many
	// consecutive failed operations (default 5; negative disables the
	// breaker). While open, operations fast-fail with ErrBreakerOpen.
	BreakerFailures int
	// BreakerOpenFor is how long the breaker sheds before admitting a
	// single half-open probe (default 5s).
	BreakerOpenFor time.Duration
	// Name labels this store's breaker-state gauge
	// (loggrep_blob_breaker_state{backend="..."}); empty registers none.
	Name string

	// Test seams; nil uses the real clock, sleep, and math/rand.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
	rnd   func() float64
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.AttemptTimeout == 0 {
		p.AttemptTimeout = 2 * time.Second
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 25 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = time.Second
	}
	if p.BreakerFailures == 0 {
		p.BreakerFailures = 5
	}
	if p.BreakerOpenFor <= 0 {
		p.BreakerOpenFor = 5 * time.Second
	}
	if p.now == nil {
		p.now = time.Now
	}
	if p.sleep == nil {
		p.sleep = retry.Sleep
	}
	if p.rnd == nil {
		var mu sync.Mutex
		r := rand.New(rand.NewSource(p.now().UnixNano()))
		p.rnd = func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return r.Float64()
		}
	}
	return p
}

// Store wraps a backend in the fault policy. It implements BlobStore, so
// stores stack (a chaos injector between the policy and the real
// backend is how the fault sweeps run).
type Store struct {
	b  BlobStore
	p  Policy
	br *Breaker
}

// Wrap returns a fault-policy store over backend.
func Wrap(backend BlobStore, p Policy) *Store {
	p = p.withDefaults()
	s := &Store{b: backend, p: p}
	if p.BreakerFailures > 0 {
		s.br = NewBreaker(p.BreakerFailures, p.BreakerOpenFor, p.now)
	}
	if p.Name != "" {
		br := s.br
		obsv.Default.Gauge(
			fmt.Sprintf("loggrep_blob_breaker_state{backend=%q}", p.Name),
			"Circuit breaker position: 0 closed, 1 half-open, 2 open",
			func() int64 {
				if br == nil {
					return 0
				}
				return int64(br.State())
			})
	}
	return s
}

// BreakerState reports the store's breaker position (BreakerClosed when
// the breaker is disabled).
func (s *Store) BreakerState() BreakerState {
	if s.br == nil {
		return BreakerClosed
	}
	return s.br.State()
}

// Get runs the policy around the backend's Get.
func (s *Store) Get(ctx context.Context, key string) ([]byte, error) {
	t0 := s.p.now()
	data, err := s.run(ctx, key)
	hGetNS.ObserveExemplar(s.p.now().Sub(t0).Nanoseconds(), traceIDFrom(ctx))
	if err != nil {
		return nil, fmt.Errorf("blob get %q: %w", key, err)
	}
	return data, nil
}

// run is the policy engine: breaker admission and the retry loop with
// full-jitter backoff around per-attempt deadlines.
func (s *Store) run(ctx context.Context, key string) ([]byte, error) {
	st := StatsFrom(ctx)
	mOps.Inc()
	st.incOps()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	release := func(BreakerOutcome) {}
	if s.br != nil {
		var err error
		release, err = s.br.Allow()
		if err != nil {
			mBreakerShed.Inc()
			mOpErrors.Inc()
			st.incShed()
			st.incFailed()
			return nil, err
		}
	}

	var lastErr error
	for attempt := 0; attempt < s.p.MaxAttempts; attempt++ {
		if attempt > 0 {
			mRetries.Inc()
			st.incRetries()
			if err := s.p.sleep(ctx, s.backoff(attempt)); err != nil {
				release(OutcomeAborted)
				st.incFailed()
				return nil, err
			}
		}
		mAttempts.Inc()
		st.incAttempts()
		data, err := s.oneAttempt(ctx, key)
		if err == nil {
			release(OutcomeOK)
			return data, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller's context ended; any attempt error is just its
			// echo. Aborts carry no verdict on the backend.
			release(OutcomeAborted)
			st.incFailed()
			return nil, err
		}
		switch Classify(err) {
		case ClassTerminal:
			// The backend answered definitively (not-found, permission,
			// bad key): healthy backend, unretryable request.
			release(OutcomeOK)
			mOpErrors.Inc()
			st.incFailed()
			return nil, err
		case ClassAborted:
			// Only the per-attempt deadline can produce this with the
			// parent context still live: the attempt wedged. Retry.
		}
	}
	release(OutcomeFailure)
	mOpErrors.Inc()
	st.incFailed()
	return nil, fmt.Errorf("after %d attempts: %w", s.p.MaxAttempts, lastErr)
}

// backoff returns the full-jitter delay before the given retry
// (attempt ≥ 1): uniform in [0, min(BackoffMax, BackoffBase·2^(attempt-1))).
func (s *Store) backoff(attempt int) time.Duration {
	return time.Duration(s.p.rnd() * float64(retry.Backoff(s.p.BackoffBase, s.p.BackoffMax, attempt)))
}

// oneAttempt runs one backend Get under the per-attempt deadline.
func (s *Store) oneAttempt(ctx context.Context, key string) ([]byte, error) {
	if s.p.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.p.AttemptTimeout)
		defer cancel()
	}
	return s.b.Get(ctx, key)
}
