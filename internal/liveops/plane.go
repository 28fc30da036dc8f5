package liveops

import (
	"time"

	"loggrep/internal/obsv"
)

// Config assembles a Plane. The zero value is a working default: a
// 1024-entry in-flight registry, a 12×5m usage window ring for up to 64
// tenants, no SLO objectives, metrics in obsv.Default.
type Config struct {
	// Registry receives the plane's metrics; nil means obsv.Default.
	Registry *obsv.Registry
	// InflightMax bounds the in-flight registry (default 1024).
	InflightMax int
	// UsageWindows is how many completed rolling windows the usage meter
	// keeps besides the current one (default 12).
	UsageWindows int
	// UsageWindowDur is each usage window's length (default 5m).
	UsageWindowDur time.Duration
	// MaxTenants bounds tenant-label cardinality; overflow aggregates
	// under OverflowTenant.
	MaxTenants int
	// Objectives are the SLO objectives to evaluate (loggrepd -slo).
	Objectives []Objective
	// Now injects a clock for deterministic tests; nil means time.Now.
	Now func() time.Time
}

// Plane is the assembled live operations plane: the in-flight registry,
// the per-tenant usage meter and the SLO engine, sharing one clock and
// one metric registry. All methods are nil-safe.
type Plane struct {
	Inflight *Registry
	Usage    *Meter
	SLO      *Engine
}

// New assembles a Plane from cfg.
func New(cfg Config) *Plane {
	p := &Plane{
		Inflight: NewRegistry(cfg.Registry, cfg.InflightMax),
		Usage:    NewMeter(cfg.Registry, cfg.UsageWindows, cfg.UsageWindowDur, cfg.MaxTenants),
		SLO:      NewEngine(cfg.Registry, cfg.Objectives),
	}
	if cfg.Now != nil {
		p.Inflight.now = cfg.Now
		p.Usage.now = cfg.Now
		p.SLO.now = cfg.Now
	}
	return p
}

// RecordEvent folds one finished request's wide event into the usage
// meter and the SLO engine — the single integration point the server's
// finishEvent calls. The event's engine-work fields (BytesScanned,
// Decompressions) are exactly what the meter attributes, so per-tenant
// totals reconcile with summed wide events.
func (p *Plane) RecordEvent(ev *obsv.WideEvent) {
	if p == nil || ev == nil {
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
