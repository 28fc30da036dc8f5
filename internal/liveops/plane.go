package liveops

import (
	"time"

	"loggrep/internal/obsv"
)

// The plane's fixed settings. loggrepd runs with these and no caller sets
// another; the package's own tests shrink them on a built Registry or
// Meter.
const (
	// inflightMax bounds the in-flight registry.
	inflightMax = 1024
	// usageWindows is how many completed rolling windows the usage meter
	// keeps besides the current one.
	usageWindows = 12
	// usageWindowDur is each usage window's length.
	usageWindowDur = 5 * time.Minute
	// MaxTenants bounds tenant-label cardinality; overflow aggregates
	// under OverflowTenant.
	MaxTenants = 64
)

// Config assembles a Plane. The zero value is a working default: no SLO
// objectives, metrics in obsv.Default.
type Config struct {
	// Registry receives the plane's metrics; nil means obsv.Default.
	Registry *obsv.Registry
	// Objectives are the SLO objectives to evaluate (loggrepd -slo).
	Objectives []Objective
}

// Plane is the assembled live operations plane: the in-flight registry,
// the per-tenant usage meter and the SLO engine, sharing one metric
// registry.
type Plane struct {
	Inflight *Registry
	Usage    *Meter
	SLO      *Engine
}

// New assembles a Plane from cfg.
func New(cfg Config) *Plane {
	return &Plane{
		Inflight: NewRegistry(cfg.Registry),
		Usage:    NewMeter(cfg.Registry),
		SLO:      NewEngine(cfg.Registry, cfg.Objectives),
	}
}

// RecordEvent folds one finished request's wide event into the usage
// meter and the SLO engine — the single integration point the server's
// finishEvent calls. The event's engine-work fields (BytesScanned,
// Decompressions) are exactly what the meter attributes, so per-tenant
// totals reconcile with summed wide events.
func (p *Plane) RecordEvent(ev *obsv.WideEvent) {
	if ev == nil {
		return
	}
	u := Usage{
		Requests:       1,
		ScanBytes:      ev.BytesScanned,
		Decompressions: ev.Decompressions,
		IngestBytes:    ev.IngestBytes,
		IngestLines:    ev.IngestLines,
		CPUNanos:       cpuEstimate(ev),
	}
	if ev.Status >= 500 {
		u.Errors = 1
	}
	p.Usage.Record(ev.Tenant, u)
	p.SLO.Record(ev.Status, time.Duration(ev.DurNS))
}

// cpuEstimate approximates a request's processor time. With per-stage
// spans the span durations are summed — parallel archive block spans
// each count, so a fanned-out query is charged its multi-core cost —
// and floored at the wall-clock duration only when there are no spans
// at all (untraced requests run the handler single-threaded).
func cpuEstimate(ev *obsv.WideEvent) int64 {
	if len(ev.Spans) == 0 {
		return ev.DurNS
	}
	var sum int64
	for i := range ev.Spans {
		sum += ev.Spans[i].DurNS
	}
	return sum
}
