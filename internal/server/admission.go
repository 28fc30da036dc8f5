package server

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"loggrep/internal/obsv"
)

// maxTimeout is the ceiling on any read request's deadline: ?timeout_ms=
// overrides and the server default are both clamped to it.
const maxTimeout = 5 * time.Minute

// initAdmission builds the semaphore and a wait queue of twice its slots
// from MaxConcurrent. Called once from Handler; changing the field
// afterwards has no effect.
func (sv *Server) initAdmission() {
	sv.admitOnce.Do(func() {
		if sv.MaxConcurrent <= 0 {
			return
		}
		sv.sem = make(chan struct{}, sv.MaxConcurrent)
		qd := sv.queueDepth
		if qd <= 0 {
			qd = 2 * sv.MaxConcurrent
		}
		sv.queue = make(chan struct{}, qd)
	})
}

func (sv *Server) isDraining() bool {
	sv.lifeMu.Lock()
	defer sv.lifeMu.Unlock()
	return sv.draining
}

// StartDraining flips the server into its shutdown posture: /healthz turns
// unhealthy and new queries are refused with 503 while in-flight ones keep
// running. Idempotent.
func (sv *Server) StartDraining() {
	sv.lifeMu.Lock()
	sv.draining = true
	sv.lifeMu.Unlock()
}

// HardStop cancels the context of every in-flight query, count and
// ingest request. Draining should come first; HardStop is the escalation
// when the grace period is half spent. Idempotent.
func (sv *Server) HardStop() {
	sv.StartDraining()
	sv.stopCancel()
}

// admitState describes what admission control did with a request — fed into
// the request's wide event.
type admitState struct {
	queued bool // waited in the admission queue
	shed   bool // refused with 429 (queue full)
	status int  // HTTP status written on refusal, 0 when admitted or silent
}

// admit applies admission control to one request. It returns a
// release function (always call it, via defer), the admission state, and
// whether the request may proceed; when it may not, the response has
// already been written: 503 while draining, 429 + Retry-After when the
// wait queue is full, nothing when the client hung up while queued.
func (sv *Server) admit(w http.ResponseWriter, r *http.Request) (func(), admitState, bool) {
	nop := func() {}
	if sv.isDraining() {
		mQueriesRejectedDraining.Inc()
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return nop, admitState{status: http.StatusServiceUnavailable}, false
	}
	if sv.sem == nil {
		return nop, admitState{}, true
	}
	// Fast path: a free execution slot, no queuing.
	select {
	case sv.sem <- struct{}{}:
		return func() { <-sv.sem }, admitState{}, true
	default:
	}
	// Queue, bounded: a full queue sheds the request immediately — under
	// sustained overload, a deep queue only converts errors into timeouts.
	select {
	case sv.queue <- struct{}{}:
	default:
		mQueriesShed.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "server at concurrency limit; retry")
		return nop, admitState{shed: true, status: http.StatusTooManyRequests}, false
	}
	mQueriesQueued.Inc()
	defer func() { <-sv.queue }()
	select {
	case sv.sem <- struct{}{}:
		return func() { <-sv.sem }, admitState{queued: true}, true
	case <-r.Context().Done():
		// Client gave up while waiting; no one left to answer.
		mQueriesHTTPCancelled.Inc()
		return nop, admitState{queued: true}, false
	case <-sv.stopCtx.Done():
		mQueriesRejectedDraining.Inc()
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return nop, admitState{queued: true, status: http.StatusServiceUnavailable}, false
	}
}

// requestContext derives a request's context: cancelled on server
// HardStop, when the client disconnects and — when deadline is set — at
// ?timeout_ms= or the server default, clamped to maxTimeout. Ingest
// requests pass deadline=false: an append has no timeout, but shutdown
// and operators can still stop it. The returned cancel must always be
// called. A malformed timeout_ms reports not-ok.
//
// The context derives from the server's stop context, so HardStop has
// cancelled it by the time HardStop returns; the client's context is
// joined through a callback instead, because a vanished client is the
// side that may be noticed late. The trace ids instrument put on the
// request context are carried over.
//
// The context is cancel-cause capable, and the returned cancelCause is
// the hook the live-ops in-flight registry fires on DELETE
// /v1/inflight/{id}: cancelling with liveops.ErrCancelled lets the
// handler tell an operator cancellation (answer a marked empty partial)
// from a vanished client (answer nothing).
func (sv *Server) requestContext(r *http.Request, deadline bool) (context.Context, context.CancelFunc, context.CancelCauseFunc, bool) {
	var timeout time.Duration
	if deadline {
		timeout = sv.QueryTimeout
		if s := r.URL.Query().Get("timeout_ms"); s != "" {
			ms, err := strconv.Atoi(s)
			if err != nil || ms <= 0 {
				return nil, nil, nil, false
			}
			timeout = time.Duration(ms) * time.Millisecond
		}
		if timeout <= 0 || timeout > maxTimeout {
			timeout = maxTimeout
		}
	}
	ctx, cancelCause := context.WithCancelCause(obsv.ContextWithIDs(sv.stopCtx, obsv.IDsFrom(r.Context())))
	cancel := func() { cancelCause(nil) }
	stop := context.AfterFunc(r.Context(), cancel)
	if timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, timeout)
		inner := cancel
		cancel = func() { tcancel(); inner() }
	}
	full := cancel
	return ctx, func() { stop(); full() }, cancelCause, true
}
