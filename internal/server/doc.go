// Package server exposes LogGrep queries over HTTP — the shape of the
// paper's production deployment, where engineers send full-text query
// commands to a log storage service during the first debugging phase (§2)
// and the second phase consumes the results programmatically.
//
// Endpoints (JSON unless noted):
//
//	GET    /healthz                          liveness + loaded-source count
//	GET    /metrics                          obsv.Default (Prometheus text;
//	                                         ?format=json for JSON)
//	GET    /v1/sources                       list loaded sources
//	PUT    /v1/sources/{name}                load a .lgrep body (box or archive)
//	DELETE /v1/sources/{name}                unload
//	GET    /v1/query?source=S&q=CMD          matching lines + entries
//	GET    /v1/count?source=S&q=CMD          match count only
//	GET    /v1/entry?source=S&line=N         one reconstructed entry
//
// Every endpoint is wrapped with a per-endpoint request counter and
// latency histogram in obsv.Default (loggrep_http_*; OPERATIONS.md
// documents all metric names). The evented endpoints — /v1/query,
// /v1/count, POST /ingest and POST /ingest/seal — additionally share one
// request lifecycle (Server.lifecycle): wide event, method gate,
// admission control, request context, blob accounting, in-flight
// registration, and a single deferred finish that fans the event out to
// its consumers on every return path, a panic included. A new evented
// endpoint is a body passed to that wrapper.
//
// Adding &trace=1 to /v1/query includes a per-stage span breakdown (the
// same data `loggrep query -trace` prints) in the response's "trace"
// field. Setting Server.Pprof before Handler additionally mounts
// net/http/pprof under /debug/pprof/.
//
// Archives with damaged blocks still answer: /v1/query reports the
// damaged line ranges in the response's "damaged" field alongside the
// matches from healthy blocks. Adding &strict=1 turns any damage into an
// error response instead.
package server
