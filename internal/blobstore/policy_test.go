package blobstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scripted is a backend whose Get follows a per-call script.
type scripted struct {
	mu    sync.Mutex
	calls int
	fn    func(call int, ctx context.Context) ([]byte, error)
}

func (s *scripted) Get(ctx context.Context, key string) ([]byte, error) {
	s.mu.Lock()
	call := s.calls
	s.calls++
	s.mu.Unlock()
	return s.fn(call, ctx)
}

func (s *scripted) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// testPolicy returns a policy with instant, recorded sleeps and a fixed
// random stream so backoff is deterministic.
func testPolicy(p Policy, sleeps *[]time.Duration) Policy {
	var mu sync.Mutex
	p.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		if sleeps != nil {
			*sleeps = append(*sleeps, d)
		}
		mu.Unlock()
		return ctx.Err()
	}
	p.rnd = func() float64 { return 0.5 }
	return p
}

func TestPolicyRetriesTransientThenSucceeds(t *testing.T) {
	back := &scripted{fn: func(call int, _ context.Context) ([]byte, error) {
		if call < 2 {
			return nil, fmt.Errorf("transient %d", call)
		}
		return []byte("payload"), nil
	}}
	var sleeps []time.Duration
	s := Wrap(back, testPolicy(Policy{MaxAttempts: 3, BreakerFailures: -1}, &sleeps))
	st := &OpStats{}
	data, err := s.Get(WithStats(context.Background(), st), "k")
	if err != nil || string(data) != "payload" {
		t.Fatalf("Get = %q, %v; want payload", data, err)
	}
	if got := back.count(); got != 3 {
		t.Fatalf("backend calls = %d, want 3", got)
	}
	if got := st.Retries.Load(); got != 2 {
		t.Fatalf("stats retries = %d, want 2", got)
	}
	if got := st.Attempts.Load(); got != 3 {
		t.Fatalf("stats attempts = %d, want 3", got)
	}
	if got := st.Failed.Load(); got != 0 {
		t.Fatalf("stats failed = %d, want 0", got)
	}
	// Full jitter with rnd=0.5: 0.5·25ms, then 0.5·50ms.
	want := []time.Duration{12500 * time.Microsecond, 25 * time.Millisecond}
	if len(sleeps) != len(want) || sleeps[0] != want[0] || sleeps[1] != want[1] {
		t.Fatalf("backoff sleeps = %v, want %v", sleeps, want)
	}
}

func TestPolicyExhaustsAttempts(t *testing.T) {
	wantErr := errors.New("disk on fire")
	back := &scripted{fn: func(int, context.Context) ([]byte, error) { return nil, wantErr }}
	s := Wrap(back, testPolicy(Policy{MaxAttempts: 4, BreakerFailures: -1}, nil))
	st := &OpStats{}
	_, err := s.Get(WithStats(context.Background(), st), "k")
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped %v", err, wantErr)
	}
	if got := back.count(); got != 4 {
		t.Fatalf("backend calls = %d, want 4", got)
	}
	if got := st.Failed.Load(); got != 1 {
		t.Fatalf("stats failed = %d, want 1", got)
	}
}

func TestPolicyTerminalErrorNotRetried(t *testing.T) {
	back := &scripted{fn: func(int, context.Context) ([]byte, error) { return nil, ErrNotFound }}
	s := Wrap(back, testPolicy(Policy{MaxAttempts: 5, BreakerFailures: -1}, nil))
	_, err := s.Get(context.Background(), "missing")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if got := back.count(); got != 1 {
		t.Fatalf("backend calls = %d, want 1 (terminal errors must not retry)", got)
	}
}

func TestPolicyParentCancelAbortsImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	back := &scripted{fn: func(int, context.Context) ([]byte, error) {
		cancel() // the caller gives up mid-attempt
		return nil, errors.New("transient")
	}}
	s := Wrap(back, testPolicy(Policy{MaxAttempts: 5, BreakerFailures: -1}, nil))
	_, err := s.Get(ctx, "k")
	if err == nil {
		t.Fatal("want error after cancellation")
	}
	if got := back.count(); got != 1 {
		t.Fatalf("backend calls = %d, want 1 (no retries after caller cancel)", got)
	}
}

func TestPolicyAttemptTimeoutRetriesWedgedBackend(t *testing.T) {
	back := &scripted{fn: func(call int, ctx context.Context) ([]byte, error) {
		if call == 0 {
			<-ctx.Done() // wedged until the per-attempt deadline fires
			return nil, ctx.Err()
		}
		return []byte("late but fine"), nil
	}}
	s := Wrap(back, testPolicy(Policy{
		MaxAttempts:     3,
		AttemptTimeout:  20 * time.Millisecond,
		BreakerFailures: -1,
	}, nil))
	data, err := s.Get(context.Background(), "k")
	if err != nil || string(data) != "late but fine" {
		t.Fatalf("Get = %q, %v; want success on the retry", data, err)
	}
	if got := back.count(); got != 2 {
		t.Fatalf("backend calls = %d, want 2", got)
	}
}

func TestPolicyBreakerShedsAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	back := &scripted{fn: func(int, context.Context) ([]byte, error) {
		if healthy.Load() {
			return []byte("ok"), nil
		}
		return nil, errors.New("down")
	}}
	clk := &fakeClock{t: time.Unix(2000, 0)}
	p := testPolicy(Policy{
		MaxAttempts:     1,
		BreakerFailures: 2,
		BreakerOpenFor:  time.Second,
	}, nil)
	p.now = clk.now
	s := Wrap(back, p)

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := s.Get(ctx, "k"); err == nil {
			t.Fatal("want failure while backend is down")
		}
	}
	if got := s.BreakerState(); got != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", got)
	}
	calls := back.count()
	st := &OpStats{}
	if _, err := s.Get(WithStats(ctx, st), "k"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("shed err = %v, want ErrBreakerOpen", err)
	}
	if back.count() != calls {
		t.Fatal("shed operation must not touch the backend")
	}
	if got := st.Shed.Load(); got != 1 {
		t.Fatalf("stats shed = %d, want 1", got)
	}

	healthy.Store(true)
	clk.advance(time.Second) // open window elapses → half-open probe
	if data, err := s.Get(ctx, "k"); err != nil || string(data) != "ok" {
		t.Fatalf("probe Get = %q, %v; want ok", data, err)
	}
	if got := s.BreakerState(); got != BreakerClosed {
		t.Fatalf("breaker state after probe success = %v, want closed", got)
	}
}

func TestPolicyNotFoundDoesNotTripBreaker(t *testing.T) {
	back := &scripted{fn: func(int, context.Context) ([]byte, error) { return nil, ErrNotFound }}
	s := Wrap(back, testPolicy(Policy{MaxAttempts: 1, BreakerFailures: 2}, nil))
	for i := 0; i < 10; i++ {
		if _, err := s.Get(context.Background(), "missing"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
	}
	if got := s.BreakerState(); got != BreakerClosed {
		t.Fatalf("breaker state = %v, want closed (not-found is a healthy backend)", got)
	}
}

func TestPolicyBackoffBounds(t *testing.T) {
	s := Wrap(&scripted{}, Policy{
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  40 * time.Millisecond,
	})
	for attempt := 1; attempt <= 6; attempt++ {
		// cap = min(max, base·2^(attempt-1))
		wantCap := 10 * time.Millisecond << (attempt - 1)
		if wantCap > 40*time.Millisecond {
			wantCap = 40 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			d := s.backoff(attempt)
			if d < 0 || d >= wantCap {
				t.Fatalf("backoff(%d) = %v, want in [0, %v)", attempt, d, wantCap)
			}
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{errors.New("mystery I/O"), ClassRetryable},
		{fmt.Errorf("wrap: %w", ErrNotFound), ClassTerminal},
		{ErrBreakerOpen, ClassTerminal},
		{context.Canceled, ClassAborted},
		{context.DeadlineExceeded, ClassAborted},
		{MarkTerminal(errors.New("torn config")), ClassTerminal},
		{fmt.Errorf("outer: %w", MarkTerminal(errors.New("inner"))), ClassTerminal},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
