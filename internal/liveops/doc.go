// Package liveops is the live operations plane: the view of what the
// server is doing right now, as opposed to the retrospective telemetry in
// internal/obsv (wide events), internal/flightrec (rings) and
// internal/otlp (export).
//
// It has three parts:
//
//   - An in-flight request registry (Registry): every query/ingest
//     request registers a live entry pointing at its wide event (trace
//     id, tenant, endpoint, command, source) and its work meter
//     (core.BudgetState: blocks searched/skipped/total, bytes scanned,
//     decompressions, current stage, which the engine counts with
//     lock-free atomic adds where the work happens), plus its start time
//     and deadline. The server exposes the registry at GET /v1/inflight
//     and cancels an entry via
//     DELETE /v1/inflight/{id}, which fires the request context's cancel
//     cause with ErrCancelled so the handler can answer a clearly-marked
//     empty partial instead of a silent drop.
//
//   - A per-tenant usage meter (Meter): a windowed accumulator (one
//     current window plus N rolling ones, a ring of fixed buckets,
//     allocation-free record path) attributing scanned bytes,
//     decompressions, ingest bytes/lines, request counts and estimated
//     CPU time to tenants, exposed at GET /v1/usage and as the bounded
//     loggrep_tenant_* metric family. This accounting is the precondition
//     for per-tenant fairness in a scatter-gather read tier.
//
//   - An SLO engine (Engine): declarative availability and
//     latency-threshold objectives evaluated continuously with the
//     multi-window multi-burn-rate method from the SRE literature (fast
//     burn: 5m and 1h both >= 14.4x; slow burn: 30m and 6h both >= 6x),
//     exposed at GET /v1/slo, as loggrep_slo_* metrics, and as a
//     flight-recorder trigger class: a fast-burn edge captures a
//     diagnostic bundle naming the breached objective.
//
// The package sits above the engine: it reads internal/core's meter and
// internal/query's canonical form, and neither internal/core nor
// internal/archive imports it (scripts/check_query_surface.sh fails the
// build if one does). Every hot-path type is nil-safe: a nil *Registry,
// *Meter, *Engine or *Plane accepts all calls as no-ops, so instrumented
// code needs no "is liveops on" branches.
package liveops
