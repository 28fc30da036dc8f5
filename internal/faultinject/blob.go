package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"loggrep/internal/blobstore"
)

// ErrInjected is the root of every fault ChaosBlob injects, so tests can
// tell injected failures from real ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected blob fault")

// ChaosBlob wraps a BlobStore and injects storage faults: transient
// errors, added latency, torn reads (corrupted bytes returned with a nil
// error, the nastiest real-world failure shape), and an op-count flap
// schedule that takes the backend hard-down in periodic windows.
//
// All decisions come from a seeded PRNG plus an operation counter, so a
// given (seed, knobs, op sequence) replays identically — the chaos sweep
// depends on that. Knobs are atomically adjustable while a store is
// serving, which is how the soak test flaps a live backend.
type ChaosBlob struct {
	inner blobstore.BlobStore

	mu  sync.Mutex
	rng *rand.Rand

	ops      atomic.Int64  // operations seen (flap schedule input)
	errRate  atomic.Uint64 // float64 bits: P(injected transient error)
	tornRate atomic.Uint64 // float64 bits: P(corrupted bytes, nil error)
	latency  atomic.Int64  // ns added to every operation
	flapPer  atomic.Int64  // flap period in ops (0 = no flapping)
	flapDown atomic.Int64  // leading ops of each period that hard-fail

	injected atomic.Int64 // injected transient errors
	torn     atomic.Int64 // torn reads served
}

// NewChaosBlob wraps inner with a deterministic fault injector.
func NewChaosBlob(inner blobstore.BlobStore, seed int64) *ChaosBlob {
	return &ChaosBlob{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// SetErrRate sets the probability (0..1) that an operation fails with an
// injected retryable error.
func (c *ChaosBlob) SetErrRate(p float64) { c.errRate.Store(math.Float64bits(p)) }

// SetTornRate sets the probability (0..1) that a read returns corrupted
// bytes with a nil error. Torn reads are invisible to the retry policy;
// only the archive layer's checksums catch them.
func (c *ChaosBlob) SetTornRate(p float64) { c.tornRate.Store(math.Float64bits(p)) }

// SetLatency adds d to every operation (cancellable via the context).
func (c *ChaosBlob) SetLatency(d time.Duration) { c.latency.Store(int64(d)) }

// SetFlap makes the backend hard-fail the first down ops of every
// period ops — a deterministic availability flap. period 0 disables.
func (c *ChaosBlob) SetFlap(period, down int64) {
	c.flapPer.Store(period)
	c.flapDown.Store(down)
}

// Injected reports how many transient errors were injected.
func (c *ChaosBlob) Injected() int64 { return c.injected.Load() }

// Torn reports how many torn reads were served.
func (c *ChaosBlob) Torn() int64 { return c.torn.Load() }

// Ops reports how many operations the injector has seen.
func (c *ChaosBlob) Ops() int64 { return c.ops.Load() }

// roll draws from the seeded PRNG.
func (c *ChaosBlob) roll() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// intn draws a bounded int from the seeded PRNG.
func (c *ChaosBlob) intn(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(n)
}

// gate runs the pre-read fault decisions: latency, the flap schedule,
// then the error-rate roll.
func (c *ChaosBlob) gate(ctx context.Context) error {
	seq := c.ops.Add(1) - 1
	if d := time.Duration(c.latency.Load()); d > 0 {
		if err := Stall(ctx, d); err != nil {
			return err
		}
	}
	if per := c.flapPer.Load(); per > 0 && seq%per < c.flapDown.Load() {
		c.injected.Add(1)
		return fmt.Errorf("%w: get down (flap op %d)", ErrInjected, seq)
	}
	if p := math.Float64frombits(c.errRate.Load()); p > 0 && c.roll() < p {
		c.injected.Add(1)
		return fmt.Errorf("%w: get error (op %d)", ErrInjected, seq)
	}
	return nil
}

// tear corrupts data when the torn-read roll hits: a single bit flip or
// a truncation, chosen and placed by the seeded PRNG.
func (c *ChaosBlob) tear(data []byte) []byte {
	p := math.Float64frombits(c.tornRate.Load())
	if p <= 0 || len(data) == 0 || c.roll() >= p {
		return data
	}
	c.torn.Add(1)
	if c.roll() < 0.5 {
		return BitFlip(c.intn(len(data)), uint(c.intn(8))).Apply(data)
	}
	return Truncate(c.intn(len(data))).Apply(data)
}

// Get injects faults around the inner Get.
func (c *ChaosBlob) Get(ctx context.Context, key string) ([]byte, error) {
	if err := c.gate(ctx); err != nil {
		return nil, err
	}
	data, err := c.inner.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	return c.tear(data), nil
}
