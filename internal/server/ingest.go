package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"

	"loggrep/internal/ingest"
)

// ingestResponse is the POST /ingest body: how many lines were durably
// acknowledged, per stream. On a 429 the counts are still authoritative —
// everything counted was accepted before the budget filled; resend the
// rest.
type ingestResponse struct {
	Accepted  int            `json:"accepted"`
	Streams   map[string]int `json:"streams,omitempty"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Error     string         `json:"error,omitempty"`
}

// handleIngest is the write path: POST /ingest?tenant=T&stream=S with a
// body of newline-separated log lines (or NDJSON records with
// Content-Type: application/x-ndjson). The batch is WAL-appended and
// fsynced before the 200 — an acknowledged line survives a crash. A full
// tenant buffer answers 429 + Retry-After: the admission layer's
// backpressure contract extended to memory, not just concurrency. A
// cancelled request context (HardStop, DELETE /v1/inflight/{id}, client
// gone) aborts the batch between stream appends with a 503; the lines
// counted in the response stay durable.
func (sv *Server) handleIngest(w http.ResponseWriter, r *http.Request, rq *request) (int, string) {
	tenant, stream := ingestTarget(r.URL.Query())
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(MaxIngestBytes)+1))
	if err != nil {
		return fail(w, http.StatusBadRequest, "read body: "+err.Error())
	}
	if len(body) > MaxIngestBytes {
		return fail(w, http.StatusRequestEntityTooLarge, "batch too large")
	}
	batch, err := ingest.ParseBatch(r.Header.Get("Content-Type"), body, stream)
	if err != nil {
		return fail(w, http.StatusBadRequest, err.Error())
	}
	resp := ingestResponse{Streams: map[string]int{}}
	var appendErr error
	for _, s := range batch.Streams {
		if appendErr = context.Cause(rq.ctx); appendErr != nil {
			break
		}
		if appendErr = sv.Ingest.AppendContext(rq.ctx, tenant, s, batch.Groups[s]); appendErr != nil {
			break
		}
		resp.Accepted += len(batch.Groups[s])
		resp.Streams[tenant+"/"+s] = len(batch.Groups[s])
	}
	resp.ElapsedMS = msSince(rq.t0)
	if len(resp.Streams) == 0 {
		resp.Streams = nil
	}
	rq.ev.Matches = int64(resp.Accepted) // accepted lines, the ingest "result size"
	rq.ev.IngestBytes = int64(len(body))
	rq.ev.IngestLines = int64(resp.Accepted)
	status := http.StatusOK
	if appendErr != nil {
		resp.Error = appendErr.Error()
		switch {
		case errors.Is(appendErr, ingest.ErrBackpressure):
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		case errors.Is(appendErr, ingest.ErrBadInput):
			status = http.StatusBadRequest
		case rq.ctx.Err() != nil:
			status = http.StatusServiceUnavailable
		default:
			status = http.StatusInternalServerError
		}
	}
	writeJSON(w, status, resp)
	return status, resp.Error
}

// handleIngestSeal forces a stream's raw tail into sealed archive
// segments: POST /ingest/seal?tenant=T&stream=S blocks until every
// segment of the stream is a sealed, index-bearing archive on disk.
// Operators use it before copying segments off the box; the INGEST.md
// quickstart uses it to make `loggrep query` over a sealed segment
// deterministic. A cancelled request context stops it between segments.
func (sv *Server) handleIngestSeal(w http.ResponseWriter, r *http.Request, rq *request) (int, string) {
	tenant, stream := ingestTarget(r.URL.Query())
	err := sv.Ingest.TriggerSeal(rq.ctx, tenant, stream)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]any{
			"sealed":     tenant + "/" + stream,
			"elapsed_ms": msSince(rq.t0),
		})
		return http.StatusOK, ""
	case errors.Is(err, ingest.ErrBadInput):
		return fail(w, http.StatusNotFound, err.Error())
	case rq.ctx.Err() != nil:
		return fail(w, http.StatusServiceUnavailable, err.Error())
	default:
		return fail(w, http.StatusInternalServerError, err.Error())
	}
}

func paramOr(q url.Values, name, def string) string {
	if v := q.Get(name); v != "" {
		return v
	}
	return def
}

// ingestTarget resolves the tenant and stream an ingest request names.
func ingestTarget(q url.Values) (tenant, stream string) {
	return paramOr(q, "tenant", "default"), paramOr(q, "stream", "default")
}
