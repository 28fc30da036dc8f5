package liveops

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"loggrep/internal/obsv"
)

// OverflowTenant aggregates usage from tenants beyond the meter's
// cardinality bound, so a tenant-name explosion (hostile or buggy
// clients) can never blow up the metric registry or the /v1/usage
// payload.
const OverflowTenant = "_other"

// Usage is one tenant's resource consumption over some interval: a
// plain additive struct used both for ring buckets and cumulative
// totals.
type Usage struct {
	// Requests counts finished requests; Errors the subset that failed
	// server-side (HTTP 5xx).
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors,omitempty"`
	// ScanBytes and Decompressions are the engine work charged to the
	// tenant's queries — the same readings the per-query budget caps.
	ScanBytes      int64 `json:"scan_bytes,omitempty"`
	Decompressions int64 `json:"decompressions,omitempty"`
	// IngestBytes/IngestLines are durably acknowledged write volume.
	IngestBytes int64 `json:"ingest_bytes,omitempty"`
	IngestLines int64 `json:"ingest_lines,omitempty"`
	// CPUNanos estimates processor time: the sum of per-stage span
	// durations when the request was traced (parallel block spans count
	// separately, approximating multi-core cost), wall-clock otherwise.
	CPUNanos int64 `json:"cpu_ns,omitempty"`
}

func (u *Usage) add(v Usage) {
	u.Requests += v.Requests
	u.Errors += v.Errors
	u.ScanBytes += v.ScanBytes
	u.Decompressions += v.Decompressions
	u.IngestBytes += v.IngestBytes
	u.IngestLines += v.IngestLines
	u.CPUNanos += v.CPUNanos
}

// tenantUsage is one tenant's accumulator: a ring of fixed window
// buckets plus running totals, guarded by a per-tenant mutex (a handful
// of plain adds under an uncontended lock — no allocation, ~tens of ns).
type tenantUsage struct {
	mu    sync.Mutex
	epoch int64 // current window index (unix time / window duration)
	ring  []Usage
	total Usage

	// Cumulative obsv counters, created once per tenant so the record
	// path is atomic adds only.
	cRequests, cErrors, cScanBytes, cDecomp *obsv.Counter
	cIngestBytes, cIngestLines, cCPU        *obsv.Counter
}

// rotate advances the ring to epoch ep, zeroing every window skipped
// while the tenant was idle. Caller holds t.mu.
func (t *tenantUsage) rotate(ep int64) {
	if ep <= t.epoch {
		// Same window, or a clock that went backwards: keep accumulating
		// into the current window rather than resurrecting an old one.
		return
	}
	gap := ep - t.epoch
	if gap > int64(len(t.ring)) {
		gap = int64(len(t.ring))
	}
	for i := int64(1); i <= gap; i++ {
		t.ring[(t.epoch+i)%int64(len(t.ring))] = Usage{}
	}
	t.epoch = ep
}

// Meter attributes resource usage to tenants over rolling windows. The
// record path takes one read-locked map lookup, one short per-tenant
// critical section and a handful of atomic counter adds — no
// allocations after a tenant's first record. All methods are safe for
// concurrent use and nil-safe.
type Meter struct {
	windows    int // completed rolling windows kept besides the current
	windowDur  time.Duration
	now        func() time.Time
	reg        *obsv.Registry
	maxTenants int

	mu      sync.RWMutex
	tenants map[string]*tenantUsage
}

// NewMeter returns a meter keeping the current window plus `windows`
// rolling ones of windowDur each (windows <= 0 picks 12, windowDur <= 0
// picks 5m) for up to maxTenants distinct tenants (<= 0 picks 64);
// beyond that, usage aggregates under OverflowTenant. Metrics register
// in reg (nil = obsv.Default).
func NewMeter(reg *obsv.Registry, windows int, windowDur time.Duration, maxTenants int) *Meter {
	if reg == nil {
		reg = obsv.Default
	}
	if windows <= 0 {
		windows = 12
	}
	if windowDur <= 0 {
		windowDur = 5 * time.Minute
	}
	if maxTenants <= 0 {
		maxTenants = 64
	}
	m := &Meter{
		windows:    windows,
		windowDur:  windowDur,
		now:        time.Now,
		reg:        reg,
		maxTenants: maxTenants,
		tenants:    make(map[string]*tenantUsage),
	}
	reg.Gauge("loggrep_tenants_tracked",
		"Distinct tenants currently tracked by the usage meter (bounded; overflow aggregates under _other)",
		func() int64 {
			m.mu.RLock()
			defer m.mu.RUnlock()
			return int64(len(m.tenants))
		})
	return m
}

// Record attributes u to tenant. The tenant name is sanitized for use
// as a Prometheus label value; an empty name records under "default".
func (m *Meter) Record(tenant string, u Usage) {
	if m == nil {
		return
	}
	t := m.tenant(tenant)
	ep := m.now().UnixNano() / int64(m.windowDur)
	t.mu.Lock()
	t.rotate(ep)
	t.ring[ep%int64(len(t.ring))].add(u)
	t.total.add(u)
	t.mu.Unlock()
	t.cRequests.Add(u.Requests)
	t.cErrors.Add(u.Errors)
	t.cScanBytes.Add(u.ScanBytes)
	t.cDecomp.Add(u.Decompressions)
	t.cIngestBytes.Add(u.IngestBytes)
	t.cIngestLines.Add(u.IngestLines)
	t.cCPU.Add(u.CPUNanos)
}

// tenant resolves (or creates) a tenant accumulator, applying the
// sanitizer and the cardinality bound.
func (m *Meter) tenant(name string) *tenantUsage {
	name = SanitizeTenant(name)
	m.mu.RLock()
	t := m.tenants[name]
	m.mu.RUnlock()
	if t != nil {
		return t
	}
	m.mu.Lock()
	if t = m.tenants[name]; t != nil {
		m.mu.Unlock()
		return t
	}
	// The overflow tenant must always be creatable, or over-cap usage
	// would vanish; everyone else respects the bound.
	if len(m.tenants) >= m.maxTenants && name != OverflowTenant {
		m.mu.Unlock()
		return m.tenant(OverflowTenant)
	}
	t = &tenantUsage{ring: make([]Usage, m.windows+1)}
	t.epoch = m.now().UnixNano() / int64(m.windowDur)
	c := func(kind, help string) *obsv.Counter {
		return m.reg.Counter(fmt.Sprintf("loggrep_tenant_%s_total{tenant=%q}", kind, name), help)
	}
	t.cRequests = c("requests", "Requests finished, by tenant")
	t.cErrors = c("errors", "Requests failed server-side (5xx), by tenant")
	t.cScanBytes = c("scanned_bytes", "Decompressed payload bytes scanned by queries, by tenant")
	t.cDecomp = c("decompressions", "Capsule payloads decompressed by queries, by tenant")
	t.cIngestBytes = c("ingest_bytes", "Ingest batch bytes durably acknowledged, by tenant")
	t.cIngestLines = c("ingest_lines", "Ingest lines durably acknowledged, by tenant")
	t.cCPU = c("cpu_ns", "Estimated CPU time consumed, by tenant")
	m.tenants[name] = t
	m.mu.Unlock()
	return t
}

// TenantUsage is one tenant's row in the GET /v1/usage payload.
type TenantUsage struct {
	Tenant string `json:"tenant"`
	// Total is cumulative since process start; Current the in-progress
	// window; Windows the completed rolling windows, most recent first.
	Total         Usage   `json:"total"`
	Current       Usage   `json:"current_window"`
	Windows       []Usage `json:"windows,omitempty"`
	WindowSeconds float64 `json:"window_seconds"`
}

// Snapshot reads every tenant's usage, tenant-sorted.
func (m *Meter) Snapshot() []TenantUsage {
	if m == nil {
		return nil
	}
	ep := m.now().UnixNano() / int64(m.windowDur)
	m.mu.RLock()
	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	m.mu.RUnlock()
	sort.Strings(names)
	out := make([]TenantUsage, 0, len(names))
	for _, name := range names {
		m.mu.RLock()
		t := m.tenants[name]
		m.mu.RUnlock()
		if t == nil {
			continue
		}
		t.mu.Lock()
		t.rotate(ep)
		n := int64(len(t.ring))
		row := TenantUsage{
			Tenant:        name,
			Total:         t.total,
			Current:       t.ring[ep%n],
			WindowSeconds: m.windowDur.Seconds(),
		}
		for i := int64(1); i < n; i++ {
			row.Windows = append(row.Windows, t.ring[((ep-i)%n+n)%n])
		}
		t.mu.Unlock()
		out = append(out, row)
	}
	return out
}

// SanitizeTenant maps an arbitrary tenant name to a bounded, Prometheus
// label-safe form: [a-zA-Z0-9_.-] kept, everything else replaced with
// '_', truncated to 64 bytes, empty mapped to "default". Hostile names
// therefore cannot produce unparsable metric labels, only collisions.
func SanitizeTenant(name string) string {
	if name == "" {
		return "default"
	}
	if len(name) > 64 {
		name = name[:64]
	}
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '.', c == '-':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
