package liveops

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loggrep/internal/core"
	"loggrep/internal/obsv"
	"loggrep/internal/query"
)

// ErrCancelled is the cancellation cause installed when an operator
// cancels an in-flight request via DELETE /v1/inflight/{id}. Handlers
// distinguish it from an ordinary context.Canceled (client gone, server
// stopping) with CancelledByOperator and answer a clearly-marked empty
// partial result instead of dropping the response.
var ErrCancelled = errors.New("cancelled by operator")

// CancelledByOperator reports whether ctx was cancelled through the
// in-flight registry, and if so returns the partial_reason to report.
func CancelledByOperator(ctx context.Context) (string, bool) {
	if errors.Is(context.Cause(ctx), ErrCancelled) {
		return "cancelled: operator request via DELETE /v1/inflight", true
	}
	return "", false
}

// EntrySpec describes one request being registered.
type EntrySpec struct {
	// Event is the request's wide event. Its trace id keys the entry — the
	// same id its /metrics exemplars and exported OTLP span carry, so an
	// operator can join the live view to the retrospective one — and its
	// tenant, endpoint, command and source, which are never written after
	// the request starts, are what the entry shows.
	Event *obsv.WideEvent
	// Meter is the request's work meter (nil reads as queued, no work).
	Meter *core.BudgetState
	// Deadline is the request context's deadline; zero when none.
	Deadline time.Time
	// Cancel is the request context's cancel-cause hook; nil entries
	// are visible but not cancellable.
	Cancel context.CancelCauseFunc
}

// Entry is one live in-flight request; immutable after Register.
type Entry struct {
	EntrySpec
	Start time.Time

	reg     *Registry
	tracked bool
	removed atomic.Bool
}

// Done removes the entry from the registry. Idempotent: exactly one call
// performs the removal, every later one is a no-op — handlers defer it
// and error paths may also call it without double-release concerns.
func (e *Entry) Done() {
	if e == nil || !e.removed.CompareAndSwap(false, true) {
		return
	}
	e.Meter.SetStage(core.StageDone)
	if e.tracked {
		e.reg.mu.Lock()
		// Only delete our own entry: a colliding id registered later must
		// not be evicted by this entry's removal.
		if cur, ok := e.reg.entries[e.Event.TraceID]; ok && cur == e {
			delete(e.reg.entries, e.Event.TraceID)
		}
		e.reg.mu.Unlock()
	}
}

// EntryView is the JSON shape of one in-flight request at GET
// /v1/inflight.
type EntryView struct {
	ID        string  `json:"id"`
	Tenant    string  `json:"tenant"`
	Endpoint  string  `json:"endpoint"`
	Query     string  `json:"query,omitempty"`
	Canonical string  `json:"query_canonical,omitempty"`
	Source    string  `json:"source,omitempty"`
	Start     string  `json:"start_time"`
	AgeMS     float64 `json:"age_ms"`
	// DeadlineMS is milliseconds until the request's deadline; absent
	// when the request has none, negative when it is overdue.
	DeadlineMS  *float64 `json:"deadline_ms,omitempty"`
	Cancellable bool     `json:"cancellable"`
	// BudgetFraction is how much of the tighter work cap is consumed,
	// in [0,1]; 0 when the request runs unbudgeted.
	BudgetFraction float64 `json:"budget_fraction"`
	// The meter's reading (core.BudgetState.Reading). Fields may be skewed
	// by in-flight adds, never by decrements (there are none).
	Stage          string `json:"stage"`
	BlocksTotal    int64  `json:"blocks_total,omitempty"`
	BlocksSearched int64  `json:"blocks_searched,omitempty"`
	BlocksSkipped  int64  `json:"blocks_skipped,omitempty"`
	BytesScanned   int64  `json:"bytes_scanned"`
	Decompressions int64  `json:"decompressions"`
}

// Registry tracks the live in-flight requests, keyed by trace id. It is
// bounded: beyond max entries, Register still hands out a working Entry
// (its meter and Done stay correct) but the entry is not
// listed or cancellable, and a dropped counter records the overflow —
// the live view degrades before the serving path ever does.
type Registry struct {
	max int
	now func() time.Time

	mu      sync.Mutex
	entries map[string]*Entry

	registered *obsv.Counter
	cancelled  *obsv.Counter
	dropped    *obsv.Counter
}

// NewRegistry returns a registry bounded to 1024 entries,
// registering its gauge and counters in reg (nil = obsv.Default).
func NewRegistry(reg *obsv.Registry) *Registry {
	if reg == nil {
		reg = obsv.Default
	}
	r := &Registry{
		max:     inflightMax,
		now:     time.Now,
		entries: make(map[string]*Entry),
		registered: reg.Counter("loggrep_inflight_registered_total",
			"Requests registered in the in-flight registry"),
		cancelled: reg.Counter("loggrep_inflight_cancelled_total",
			"In-flight requests cancelled by operator via DELETE /v1/inflight"),
		dropped: reg.Counter("loggrep_inflight_dropped_total",
			"Requests not tracked because the in-flight registry was full (or the id collided)"),
	}
	reg.Gauge("loggrep_inflight_queries",
		"Requests currently executing and tracked in the in-flight registry",
		func() int64 { return int64(r.Len()) })
	return r
}

// Register adds a request to the registry and returns its live entry.
func (r *Registry) Register(spec EntrySpec) *Entry {
	e := &Entry{EntrySpec: spec}
	e.Start = r.now()
	e.reg = r
	r.registered.Inc()
	id := spec.Event.TraceID
	r.mu.Lock()
	_, collision := r.entries[id]
	if len(r.entries) < r.max && !collision && id != "" {
		r.entries[id] = e
		e.tracked = true
	}
	r.mu.Unlock()
	if !e.tracked {
		r.dropped.Inc()
	}
	return e
}

// Cancel fires the cancel cause of the entry with the given id,
// reporting whether a cancellable entry was found. The entry stays
// registered until its handler unwinds and calls Done — an operator
// polling /v1/inflight sees the stage freeze, then the entry vanish.
func (r *Registry) Cancel(id string) bool {
	r.mu.Lock()
	e := r.entries[id]
	r.mu.Unlock()
	if e == nil || e.Cancel == nil {
		return false
	}
	e.Cancel(ErrCancelled)
	r.cancelled.Inc()
	return true
}

// Len returns how many entries are currently tracked.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Snapshot lists the tracked in-flight requests, oldest first (the
// request most likely to need an operator's attention leads).
func (r *Registry) Snapshot() []EntryView {
	now := r.now()
	r.mu.Lock()
	es := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
	}
	r.mu.Unlock()
	sort.Slice(es, func(i, j int) bool {
		if !es[i].Start.Equal(es[j].Start) {
			return es[i].Start.Before(es[j].Start)
		}
		return es[i].Event.TraceID < es[j].Event.TraceID
	})
	out := make([]EntryView, len(es))
	for i, e := range es {
		ev, m := e.Event, e.Meter
		work := m.Reading()
		v := EntryView{
			ID:             ev.TraceID,
			Tenant:         ev.Tenant,
			Endpoint:       ev.Endpoint,
			Query:          ev.Command,
			Canonical:      canonical(ev.Command),
			Source:         ev.Source,
			Start:          e.Start.UTC().Format(time.RFC3339Nano),
			AgeMS:          float64(now.Sub(e.Start).Microseconds()) / 1000,
			Cancellable:    e.Cancel != nil,
			BudgetFraction: m.Fraction(),
			Stage:          m.Stage().String(),
			BlocksTotal:    work.Blocks,
			BlocksSearched: work.BlocksSearched,
			BlocksSkipped:  work.BlocksSkipped,
			BytesScanned:   work.BytesScanned,
			Decompressions: work.Decompressions,
		}
		if !e.Deadline.IsZero() {
			ms := float64(e.Deadline.Sub(now).Microseconds()) / 1000
			v.DeadlineMS = &ms
		}
		out[i] = v
	}
	return out
}

// canonical is a command's parser-normalized form, useful for grouping
// retries of the same logical query under different spellings; empty when
// it is the command itself or the command does not parse. It costs a
// parse, so it runs on the operator's poll, never on the query path.
func canonical(cmd string) string {
	if c := query.Canonical(cmd); c != cmd {
		return c
	}
	return ""
}
