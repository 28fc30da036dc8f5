package liveops

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"loggrep/internal/core"
	"loggrep/internal/obsv"
)

// totalOf reads one tenant's cumulative usage out of the meter's snapshot.
func totalOf(m *Meter, tenant string) Usage {
	for _, row := range m.Snapshot() {
		if row.Tenant == tenant {
			return row.Total
		}
	}
	return Usage{}
}

func testClock(start time.Time) (func() time.Time, func(time.Duration)) {
	var mu sync.Mutex
	now := start
	return func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}, func(d time.Duration) {
			mu.Lock()
			now = now.Add(d)
			mu.Unlock()
		}
}

// TestRegistryLifecycle covers register → snapshot → cancel → done:
// oldest-first ordering, idempotent removal, and the cancel cause
// reaching the request context.
func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry(obsv.NewRegistry(), 8)
	now, advance := testClock(time.Unix(1000, 0))
	reg.now = now

	ctx1, cancel1 := context.WithCancelCause(context.Background())
	e1 := reg.Register(EntrySpec{
		Event:  &obsv.WideEvent{TraceID: "aaa", Tenant: "acme", Endpoint: "query", Command: "ERROR  AND x"},
		Meter:  core.NewBudgetState(core.Budget{MaxDecompressions: 4}),
		Cancel: cancel1,
	})
	advance(time.Second)
	e2 := reg.Register(EntrySpec{Event: &obsv.WideEvent{TraceID: "bbb", Tenant: "bravo", Endpoint: "count"}})
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", reg.Len())
	}
	views := reg.Snapshot()
	if len(views) != 2 || views[0].ID != "aaa" || views[1].ID != "bbb" {
		t.Fatalf("snapshot order = %v, want oldest (aaa) first", views)
	}
	if !views[0].Cancellable || views[1].Cancellable {
		t.Fatal("cancellable flags wrong: entry with a Cancel hook must be cancellable, one without must not")
	}
	if views[0].AgeMS < 1000 {
		t.Fatalf("aaa age = %vms, want >= 1000", views[0].AgeMS)
	}
	// The view reads the request's event and meter, not copies of them.
	e1.Meter.AddBlocks(3, 1, 1)
	e1.Meter.SetStage(core.StageFilter)
	v := reg.Snapshot()[0]
	if v.Tenant != "acme" || v.Endpoint != "query" || v.Query != "ERROR  AND x" || v.Canonical != "(ERROR AND x)" ||
		v.Stage != "filter" || v.BlocksTotal != 3 || v.BlocksSearched != 1 || v.BlocksSkipped != 1 {
		t.Fatalf("view of aaa = %+v", v)
	}
	if v := reg.Snapshot()[1]; v.Stage != "queued" || v.Canonical != "" || v.BudgetFraction != 0 {
		t.Fatalf("view of bbb (no meter) = %+v", v)
	}

	if reg.Cancel("bbb") {
		t.Fatal("Cancel succeeded on an entry with no cancel hook")
	}
	if reg.Cancel("nope") {
		t.Fatal("Cancel succeeded on an unknown id")
	}
	if !reg.Cancel("aaa") {
		t.Fatal("Cancel failed on a cancellable entry")
	}
	if reason, ok := CancelledByOperator(ctx1); !ok || reason == "" {
		t.Fatalf("cancelled context not recognized as operator cancel (reason %q ok %v)", reason, ok)
	}
	// The entry stays visible until its handler unwinds.
	if reg.Len() != 2 {
		t.Fatalf("Len after cancel = %d, want 2 (entry leaves at Done)", reg.Len())
	}
	e1.Done()
	e1.Done() // idempotent
	e2.Done()
	if reg.Len() != 0 {
		t.Fatalf("Len after Done = %d, want 0", reg.Len())
	}
	// An ordinary client-gone cancellation is not an operator cancel.
	ctx2, cancel2 := context.WithCancelCause(context.Background())
	cancel2(nil)
	<-ctx2.Done()
	if _, ok := CancelledByOperator(ctx2); ok {
		t.Fatal("plain cancellation misreported as operator cancel")
	}
}

// TestRegistryBound: beyond max entries Register still returns a working
// untracked entry, and id collisions are not tracked twice.
func TestRegistryBound(t *testing.T) {
	reg := NewRegistry(obsv.NewRegistry(), 2)
	spec := func(id string) EntrySpec {
		return EntrySpec{Event: &obsv.WideEvent{TraceID: id}, Meter: core.NewBudgetState(core.Budget{})}
	}
	a := reg.Register(spec("a"))
	b := reg.Register(spec("b"))
	c := reg.Register(spec("c")) // over the bound
	d := reg.Register(spec("a")) // collision
	e := reg.Register(spec(""))  // no id
	for _, ent := range []*Entry{c, d, e} {
		ent.Meter.AddBlocks(1, 1, 0) // untracked entries still count safely
		ent.Done()
		if got := ent.Meter.Stage(); got != core.StageDone {
			t.Fatalf("untracked entry's stage after Done = %v, want done", got)
		}
	}
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (bound respected)", reg.Len())
	}
	// The collision's Done must not evict the original "a".
	d.Done()
	if reg.Len() != 2 {
		t.Fatalf("Len = %d after colliding Done, want 2", reg.Len())
	}
	a.Done()
	b.Done()
	if reg.Len() != 0 {
		t.Fatalf("Len = %d, want 0", reg.Len())
	}
}

// TestMeterWindowsRotate: usage lands in the current window, rotates into
// history as the clock advances, and falls off the ring after `windows`
// rotations — while the cumulative total never decays.
func TestMeterWindowsRotate(t *testing.T) {
	m := NewMeter(obsv.NewRegistry(), 3, time.Minute, 8)
	now, advance := testClock(time.Unix(10_000, 0))
	m.now = now

	m.Record("acme", Usage{Requests: 1, ScanBytes: 100})
	snap := m.Snapshot()
	if len(snap) != 1 || snap[0].Current.ScanBytes != 100 {
		t.Fatalf("current window = %+v, want 100 scan bytes", snap)
	}
	advance(time.Minute)
	m.Record("acme", Usage{Requests: 1, ScanBytes: 7})
	snap = m.Snapshot()
	if snap[0].Current.ScanBytes != 7 {
		t.Fatalf("current window after rotate = %d, want 7", snap[0].Current.ScanBytes)
	}
	if len(snap[0].Windows) != 3 || snap[0].Windows[0].ScanBytes != 100 {
		t.Fatalf("windows = %+v, want most-recent-first with 100 leading", snap[0].Windows)
	}
	// Far future: history fully decays, totals don't.
	advance(10 * time.Minute)
	snap = m.Snapshot()
	if snap[0].Current.ScanBytes != 0 {
		t.Fatalf("current window after long idle = %d, want 0", snap[0].Current.ScanBytes)
	}
	for i, w := range snap[0].Windows {
		if w.ScanBytes != 0 {
			t.Fatalf("window %d = %+v, want decayed to zero", i, w)
		}
	}
	if got := totalOf(m, "acme"); got.ScanBytes != 107 || got.Requests != 2 {
		t.Fatalf("total = %+v, want 107 bytes / 2 requests", got)
	}
}

// TestMeterCardinalityBound: tenants beyond the bound aggregate under
// OverflowTenant instead of growing the registry.
func TestMeterCardinalityBound(t *testing.T) {
	m := NewMeter(obsv.NewRegistry(), 2, time.Minute, 2)
	m.Record("a", Usage{Requests: 1})
	m.Record("b", Usage{Requests: 1})
	m.Record("c", Usage{Requests: 1})
	m.Record("d", Usage{Requests: 1})
	snap := m.Snapshot()
	if len(snap) != 3 { // a, b, _other
		t.Fatalf("tracked tenants = %d (%v), want 3 (a, b, _other)", len(snap), snap)
	}
	if got := totalOf(m, OverflowTenant); got.Requests != 2 {
		t.Fatalf("overflow requests = %d, want 2", got.Requests)
	}
}

func TestSanitizeTenant(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "default"},
		{"acme", "acme"},
		{"team-7.prod_x", "team-7.prod_x"},
		{`evil"} nope{`, "evil___nope_"},
		{"Ωmega", "__mega"}, // multi-byte runes sanitize byte-wise
	} {
		if got := SanitizeTenant(tc.in); got != tc.want {
			t.Errorf("SanitizeTenant(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	long := make([]byte, 200)
	for i := range long {
		long[i] = 'a'
	}
	if got := SanitizeTenant(string(long)); len(got) != 64 {
		t.Errorf("long tenant sanitized to %d bytes, want 64", len(got))
	}
}

func TestParseObjective(t *testing.T) {
	o, err := ParseObjective("availability:99.9:30d")
	if err != nil {
		t.Fatal(err)
	}
	if o.Name != "availability" || math.Abs(o.Target-0.999) > 1e-9 || o.Window != 30*24*time.Hour || o.LatencyThreshold != 0 {
		t.Fatalf("parsed %+v", o)
	}
	o, err = ParseObjective("read-latency:99%:28d:500ms")
	if err != nil {
		t.Fatal(err)
	}
	if o.Target != 0.99 || o.LatencyThreshold != 500*time.Millisecond || o.Window != 28*24*time.Hour {
		t.Fatalf("parsed %+v", o)
	}
	for _, bad := range []string{
		"", "x", "a:b:c:d:e", ":99:30d", "a:banana:30d", "a:0:30d",
		"a:100:30d", "a:99:0d", "a:99:banana", "a:99:30d:-1s", "a:99:30d:zap",
	} {
		if _, err := ParseObjective(bad); err == nil {
			t.Errorf("ParseObjective(%q) succeeded, want error", bad)
		}
	}
}

// TestSLOBurnAndFastBurnEdge drives an engine with an injected clock
// through a fast burn and asserts the edge-triggered hook fires exactly
// once per breach, naming the objective.
func TestSLOBurnAndFastBurnEdge(t *testing.T) {
	e := NewEngine(obsv.NewRegistry(), []Objective{
		{Name: "avail", Target: 0.99, Window: 30 * 24 * time.Hour},
	})
	now, advance := testClock(time.Unix(100_000, 0))
	e.now = now
	var fired []string
	e.OnFastBurn(func(name string) { fired = append(fired, name) })

	// 1000 good requests over ~65 minutes keep the 1h window populated.
	for i := 0; i < 65; i++ {
		for j := 0; j < 16; j++ {
			e.Record(200, 10*time.Millisecond)
		}
		advance(time.Minute)
	}
	e.Evaluate()
	st := e.Snapshot()[0]
	if st.FastBurn || st.Burn5m != 0 {
		t.Fatalf("healthy engine reports burn: %+v", st)
	}
	// With a 1% budget, a ~30% bad share burns at 30x — past both the 5m
	// and the 1h threshold once enough bad minutes accumulate.
	for i := 0; i < 30; i++ {
		for j := 0; j < 6; j++ {
			e.Record(500, 10*time.Millisecond)
			e.Record(200, 10*time.Millisecond)
		}
		advance(time.Minute)
	}
	e.Evaluate()
	st = e.Snapshot()[0]
	if !st.FastBurn {
		t.Fatalf("fast burn not detected: %+v", st)
	}
	if st.Burn5m < FastBurnThreshold || st.Burn1h < FastBurnThreshold {
		t.Fatalf("burn rates %v / %v below threshold %v", st.Burn5m, st.Burn1h, FastBurnThreshold)
	}
	e.Evaluate() // still burning: edge already reported, no second fire
	if len(fired) != 1 || fired[0] != "avail" {
		t.Fatalf("fast-burn hook fired %v, want exactly [avail]", fired)
	}
	if st.BudgetRemaining >= 1 {
		t.Fatalf("budget remaining %v, want consumed below 1", st.BudgetRemaining)
	}
}

// TestSLOLatencyObjective: a latency objective counts slow-but-successful
// requests as bad; availability ignores them. 4xx and status-0 are not
// SLI events for either.
func TestSLOLatencyObjective(t *testing.T) {
	e := NewEngine(obsv.NewRegistry(), []Objective{
		{Name: "avail", Target: 0.999, Window: 30 * 24 * time.Hour},
		{Name: "lat", Target: 0.999, Window: 30 * 24 * time.Hour, LatencyThreshold: 100 * time.Millisecond},
	})
	e.Record(200, 50*time.Millisecond)  // good for both
	e.Record(200, 500*time.Millisecond) // good avail, bad lat
	e.Record(500, 10*time.Millisecond)  // bad both
	e.Record(429, 10*time.Millisecond)  // shed: neither
	e.Record(404, 10*time.Millisecond)  // client error: neither
	e.Record(0, 10*time.Millisecond)    // client gone: neither
	snap := e.Snapshot()
	if snap[0].Good != 2 || snap[0].Bad != 1 {
		t.Fatalf("avail good/bad = %d/%d, want 2/1", snap[0].Good, snap[0].Bad)
	}
	if snap[1].Good != 1 || snap[1].Bad != 2 {
		t.Fatalf("lat good/bad = %d/%d, want 1/2", snap[1].Good, snap[1].Bad)
	}
}

// TestPlaneRecordEventReconciles: the plane attributes exactly the wide
// event's engine-work fields, so summed events equal metered totals.
func TestPlaneRecordEventReconciles(t *testing.T) {
	p := New(Config{Registry: obsv.NewRegistry()})
	events := []*obsv.WideEvent{
		{Tenant: "acme", Status: 200, DurNS: 1e6, BytesScanned: 1000, Decompressions: 3},
		{Tenant: "acme", Status: 500, DurNS: 2e6, BytesScanned: 50, Decompressions: 1,
			Spans: []obsv.Span{{Name: "filter", DurNS: 3e6}, {Name: "verify", DurNS: 4e6}}},
		{Tenant: "bravo", Status: 200, DurNS: 5e5, IngestBytes: 2048, IngestLines: 32},
	}
	var wantScan, wantDec int64
	for _, ev := range events {
		p.RecordEvent(ev)
		if ev.Tenant == "acme" {
			wantScan += ev.BytesScanned
			wantDec += ev.Decompressions
		}
	}
	got := totalOf(p.Usage, "acme")
	if got.ScanBytes != wantScan || got.Decompressions != wantDec {
		t.Fatalf("acme usage %+v, want %d bytes / %d decompressions", got, wantScan, wantDec)
	}
	if got.Requests != 2 || got.Errors != 1 {
		t.Fatalf("acme requests/errors = %d/%d, want 2/1", got.Requests, got.Errors)
	}
	// Traced events charge span-sum CPU; untraced charge wall clock.
	if got.CPUNanos != 1e6+7e6 {
		t.Fatalf("acme cpu = %d, want %d", got.CPUNanos, int64(1e6+7e6))
	}
	if b := totalOf(p.Usage, "bravo"); b.IngestBytes != 2048 || b.IngestLines != 32 || b.CPUNanos != 5e5 {
		t.Fatalf("bravo usage %+v", b)
	}
	p.RecordEvent(nil) // nil-safe
}
