package blobstore

import "loggrep/internal/obsv"

// Blob-layer metrics, registered in obsv.Default so they ride /metrics
// and the flight recorder's counter deltas. Documented in OPERATIONS.md;
// keep the two in sync.
var (
	mOps = obsv.Default.Counter("loggrep_blob_ops_total",
		"Blob operations issued through a fault-policy store")
	mOpErrors = obsv.Default.Counter("loggrep_blob_op_errors_total",
		"Blob operations that ultimately failed after the policy ran out of options")
	mAttempts = obsv.Default.Counter("loggrep_blob_attempts_total",
		"Backend attempts (attempts - ops = extra work the policy spent)")
	mRetries = obsv.Default.Counter("loggrep_blob_retries_total",
		"Backend attempts beyond an operation's first (transient failures being retried)")
	mBreakerOpened = obsv.Default.Counter("loggrep_blob_breaker_open_total",
		"Circuit breaker transitions into open (closed or half-open probe failure)")
	mBreakerHalfOpen = obsv.Default.Counter("loggrep_blob_breaker_half_open_total",
		"Circuit breaker transitions open → half-open (probe window reached)")
	mBreakerClosed = obsv.Default.Counter("loggrep_blob_breaker_close_total",
		"Circuit breaker transitions half-open → closed (probe succeeded)")
	mBreakerShed = obsv.Default.Counter("loggrep_blob_breaker_shed_total",
		"Blob operations fast-failed by an open breaker without touching the backend")

	// FaultShedQueries counts queries degraded to a Partial result with
	// PartialReason "storage" because some archive stayed unreadable
	// after the policy's retries. Incremented by the query layers
	// (internal/ingest), not by the store itself — the store sees
	// operations, not queries.
	FaultShedQueries = obsv.Default.Counter("loggrep_blob_fault_shed_queries_total",
		"Queries degraded to partial results because a blob stayed unreadable after retries")

	hGetNS = obsv.Default.Histogram("loggrep_blob_get_ns", "ns",
		"Whole-operation Get latency through the fault policy (retries included)")
)
