package obsv

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// NewTraceID128 returns a W3C-shaped 128-bit (32 lowercase hex) trace id.
// loggrepd mints one per request that arrives without a traceparent
// header; requests that carry one adopt the caller's id instead, so one
// trace joins the caller, this process, and whatever it calls next.
func NewTraceID128() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// fixed non-zero id (all-zero is invalid per W3C trace-context)
		// rather than plumbing an error through callers.
		return "00000000000000000000000000000001"
	}
	id := hex.EncodeToString(b[:])
	if id == "00000000000000000000000000000000" {
		return "00000000000000000000000000000001"
	}
	return id
}

// NewSpanID returns a W3C-shaped 64-bit (16 lowercase hex) span id.
func NewSpanID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000001"
	}
	id := hex.EncodeToString(b[:])
	if id == "0000000000000000" {
		return "0000000000000001"
	}
	return id
}

// ReqIDs is one request's trace identity: the (possibly caller-supplied)
// trace id, the span this process opened for the request, the caller's
// span when the request arrived with a traceparent header, and the
// caller's tracestate carried through verbatim for the exported span.
type ReqIDs struct {
	TraceID      string
	SpanID       string
	ParentSpanID string
	TraceState   string
}

// reqIDsKey carries a request's ReqIDs in its context.
type reqIDsKey struct{}

// ContextWithIDs returns a context carrying the request's trace identity.
// The server's instrument middleware installs it; every layer below (wide
// events, ingest exemplars, blob-store accounting) reads it back.
func ContextWithIDs(ctx context.Context, ids ReqIDs) context.Context {
	return context.WithValue(ctx, reqIDsKey{}, ids)
}

// IDsFrom returns the trace identity attached to ctx, zero when none.
func IDsFrom(ctx context.Context) ReqIDs {
	ids, _ := ctx.Value(reqIDsKey{}).(ReqIDs)
	return ids
}

// TraceIDFrom returns just the trace id attached to ctx, "" when none —
// the common case for code that only wants to stamp an exemplar.
func TraceIDFrom(ctx context.Context) string {
	return IDsFrom(ctx).TraceID
}
