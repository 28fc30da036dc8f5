// Package blobstore is the storage seam every archive byte is read
// through: a one-method context-aware interface (Get) with a
// local-filesystem backend — a backend adds what its first caller needs —
// wrapped in a fault-policy middleware that turns a flaky backend into
// one that is "never wrong, only slower".
//
// The policy layer (Wrap) classifies errors as retryable or terminal,
// bounds each attempt with its own deadline, retries transient failures
// with exponential backoff and full jitter, and sheds to fast-fail
// through a per-store circuit breaker (closed → open → half-open, single
// probe) when the backend is persistently sick. Callers that can degrade
// — the ingest query path quarantining one unreadable sealed segment into
// a Partial result — see a clean classified error after the policy has
// done everything worth doing.
//
// Every operation feeds the loggrep_blob_* metrics in obsv.Default, and
// callers may attach an OpStats collector to the context (WithStats) to
// account attempts, retries, and breaker sheds per request — the server
// stamps these into each query's wide event.
package blobstore
