package blobstore

import (
	"context"
	"errors"
	"io/fs"
	"sync/atomic"
)

// BlobStore is the read-side storage abstraction archive bytes come
// through. Keys are slash-separated relative paths ("tenant/stream/
// seg-00000001.lgrep"). Implementations must be safe for concurrent use
// and must honor context cancellation between (not necessarily within)
// I/O operations.
//
// The interface is deliberately read-only: writers keep their own
// durability protocols (WAL fsync ordering, atomic temp+rename publishes)
// which do not generalize across backends the way reads do.
type BlobStore interface {
	// Get returns the blob's full contents.
	Get(ctx context.Context, key string) ([]byte, error)
}

// ErrNotFound reports a key with no blob behind it. Terminal: retrying
// cannot make the blob appear.
var ErrNotFound = errors.New("blobstore: not found")

// ErrBreakerOpen reports an operation shed by an open circuit breaker:
// the backend has failed persistently and the policy is fast-failing to
// protect it (and the caller's latency) until the open window elapses.
// Terminal for this call; the half-open probe decides when to try again.
var ErrBreakerOpen = errors.New("blobstore: circuit breaker open")

// Class is an error's retry classification.
type Class int

const (
	// ClassRetryable errors are transient I/O failures worth retrying:
	// the default for anything not provably permanent.
	ClassRetryable Class = iota
	// ClassTerminal errors cannot be fixed by retrying: missing blobs,
	// permission failures, breaker sheds, malformed requests.
	ClassTerminal
	// ClassAborted errors mean the caller gave up (context cancelled or
	// its deadline exceeded); they count against nobody's health.
	ClassAborted
)

func (c Class) String() string {
	switch c {
	case ClassRetryable:
		return "retryable"
	case ClassTerminal:
		return "terminal"
	case ClassAborted:
		return "aborted"
	}
	return "unknown"
}

// terminal marks an error the taxonomy cannot infer to be permanent
// (backends use it for malformed requests such as a key outside the root).
type terminal struct{ err error }

func (e *terminal) Error() string { return e.err.Error() }
func (e *terminal) Unwrap() error { return e.err }

// MarkTerminal marks err as not worth retrying.
func MarkTerminal(err error) error {
	if err == nil {
		return nil
	}
	return &terminal{err}
}

// Classify maps an error to its retry class. Unknown errors default to
// retryable: storage backends fail transiently far more often than they
// fail in novel permanent ways, and a bounded retry of a genuinely
// permanent error costs milliseconds while a non-retry of a transient
// one fails a whole query.
func Classify(err error) Class {
	if err == nil {
		return ClassTerminal
	}
	var marked *terminal
	if errors.As(err, &marked) {
		return ClassTerminal
	}
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ClassAborted
	case errors.Is(err, ErrNotFound), errors.Is(err, fs.ErrNotExist),
		errors.Is(err, fs.ErrPermission), errors.Is(err, ErrBreakerOpen),
		errors.Is(err, fs.ErrInvalid):
		return ClassTerminal
	}
	return ClassRetryable
}

// OpStats accounts one request's blob operations across every store call
// made under its context (WithStats). The counters are atomic so
// concurrent store calls under one context stay race-free.
type OpStats struct {
	// TraceID, when set by the caller, identifies the request these ops
	// belong to; blob-layer latency exemplars carry it so a slow Get on
	// /metrics joins the same trace as its wide event and OTLP span.
	TraceID  string
	Ops      atomic.Int64 // operations issued
	Attempts atomic.Int64 // backend attempts (≥ Ops)
	Retries  atomic.Int64 // attempts beyond the first, per op
	Shed     atomic.Int64 // ops fast-failed by an open breaker
	Failed   atomic.Int64 // ops that ultimately returned an error
}

// The inc helpers are nil-safe so the policy can bump unconditionally.
func (st *OpStats) incOps() {
	if st != nil {
		st.Ops.Add(1)
	}
}
func (st *OpStats) incAttempts() {
	if st != nil {
		st.Attempts.Add(1)
	}
}
func (st *OpStats) incRetries() {
	if st != nil {
		st.Retries.Add(1)
	}
}
func (st *OpStats) incShed() {
	if st != nil {
		st.Shed.Add(1)
	}
}
func (st *OpStats) incFailed() {
	if st != nil {
		st.Failed.Add(1)
	}
}

type opStatsKey struct{}

// WithStats returns a context whose blob operations are accounted into
// st in addition to the global metrics.
func WithStats(ctx context.Context, st *OpStats) context.Context {
	return context.WithValue(ctx, opStatsKey{}, st)
}

// StatsFrom returns the OpStats attached to ctx, nil when none.
func StatsFrom(ctx context.Context) *OpStats {
	st, _ := ctx.Value(opStatsKey{}).(*OpStats)
	return st
}

// traceIDFrom returns the request trace id riding ctx's OpStats, "" when
// the context carries none. Nil-safe so the policy's latency exemplars
// can read it unconditionally.
func traceIDFrom(ctx context.Context) string {
	if st := StatsFrom(ctx); st != nil {
		return st.TraceID
	}
	return ""
}
