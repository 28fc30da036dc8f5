package server

import (
	"context"
	"net/http"
	"net/url"
	"strings"

	"loggrep/internal/liveops"
)

// requestTenant resolves the accountable tenant of a request: the
// explicit ?tenant= parameter first (the ingest convention), then the
// X-Loggrep-Tenant header (read-path clients that front many tenants),
// then the tenant prefix of a "tenant/stream" source name, and finally
// "default". The result is sanitized, so a hostile name cannot corrupt
// metric labels downstream. Takes pre-parsed query values — url.Query()
// re-parses on every call, and this sits on the request hot path.
func requestTenant(q url.Values, h http.Header) string {
	if t := q.Get("tenant"); t != "" {
		return liveops.SanitizeTenant(t)
	}
	if t := h.Get("X-Loggrep-Tenant"); t != "" {
		return liveops.SanitizeTenant(t)
	}
	if src := q.Get("source"); src != "" {
		if i := strings.IndexByte(src, '/'); i > 0 {
			return liveops.SanitizeTenant(src[:i])
		}
	}
	return "default"
}

// beginLiveops registers one request in the in-flight registry: its wide
// event and meter are what /v1/inflight shows. The returned done func is
// always usable; with the plane disabled it is a no-op.
func (sv *Server) beginLiveops(rq *request, cancel context.CancelCauseFunc) func() {
	if sv.Liveops == nil {
		return func() {}
	}
	deadline, _ := rq.ctx.Deadline()
	return sv.Liveops.Inflight.Register(liveops.EntrySpec{
		Event: rq.ev, Meter: rq.meter, Deadline: deadline, Cancel: cancel,
	}).Done
}

// handleInflight serves GET /v1/inflight: the live in-flight requests,
// oldest first. With the plane disabled it reports {"enabled": false}
// rather than 404, like /debug/flightrec, so probes can tell "off" from
// "wrong URL".
func (sv *Server) handleInflight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only (DELETE takes /v1/inflight/{id})")
		return
	}
	if sv.Liveops == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	views := sv.Liveops.Inflight.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":  true,
		"inflight": views,
		"count":    len(views),
	})
}

// handleInflightID serves DELETE /v1/inflight/{id}: cancel one in-flight
// request by trace id. The cancellation is cooperative — the engine's
// next checkpoint observes it — and the cancelled handler answers its
// client with an empty partial marked "cancelled", never a wrong result.
func (sv *Server) handleInflightID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/inflight/")
	if id == "" || strings.Contains(id, "/") {
		httpError(w, http.StatusBadRequest, "bad inflight id")
		return
	}
	if r.Method != http.MethodDelete {
		httpError(w, http.StatusMethodNotAllowed, "DELETE only")
		return
	}
	if sv.Liveops == nil {
		httpError(w, http.StatusServiceUnavailable, "liveops disabled")
		return
	}
	if !sv.Liveops.Inflight.Cancel(id) {
		httpError(w, http.StatusNotFound, "no cancellable in-flight request with that id")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"cancelled": id})
}

// handleUsage serves GET /v1/usage: per-tenant resource consumption,
// cumulative and windowed.
func (sv *Server) handleUsage(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if sv.Liveops == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"tenants": sv.Liveops.Usage.Snapshot(),
	})
}

// handleSLO serves GET /v1/slo: every objective's compliance, budget and
// multi-window burn rates.
func (sv *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if sv.Liveops == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	sv.Liveops.SLO.Evaluate()
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":    true,
		"objectives": sv.Liveops.SLO.Snapshot(),
	})
}
