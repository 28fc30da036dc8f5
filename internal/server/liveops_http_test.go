package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"loggrep/internal/archive"
	"loggrep/internal/core"
	"loggrep/internal/faultinject"
	"loggrep/internal/flightrec"
	"loggrep/internal/ingest"
	"loggrep/internal/liveops"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
	"loggrep/internal/obsv"
)

// usageTotal reads one tenant's cumulative usage out of /v1/usage's source.
func usageTotal(sv *Server, tenant string) liveops.Usage {
	for _, row := range sv.Liveops.Usage.Snapshot() {
		if row.Tenant == tenant {
			return row.Total
		}
	}
	return liveops.Usage{}
}

// inflightResp mirrors the GET /v1/inflight envelope.
type inflightResp struct {
	Enabled  bool                `json:"enabled"`
	Inflight []liveops.EntryView `json:"inflight"`
	Count    int                 `json:"count"`
}

// TestLiveopsAlwaysOn: a server from New with nothing else wired serves
// the live operations plane — every read endpoint reports enabled, the
// request that just ran shows in /v1/usage, and cancelling an unknown id
// is a 404, not a disabled plane's 503.
func TestLiveopsAlwaysOn(t *testing.T) {
	ts := httptest.NewServer(newServer().Handler())
	defer ts.Close()
	getJSON(t, ts.URL+"/v1/count?source=nope&q=ERROR", http.StatusNotFound, nil)
	for _, path := range []string{"/v1/inflight", "/v1/usage", "/v1/slo"} {
		var out map[string]any
		getJSON(t, ts.URL+path, http.StatusOK, &out)
		if enabled, _ := out["enabled"].(bool); !enabled {
			t.Errorf("%s = %v, want enabled", path, out)
		}
	}
	var usage struct {
		Tenants []liveops.TenantUsage `json:"tenants"`
	}
	getJSON(t, ts.URL+"/v1/usage", http.StatusOK, &usage)
	if len(usage.Tenants) != 1 || usage.Tenants[0].Tenant != "default" || usage.Tenants[0].Total.Requests != 1 {
		t.Errorf("usage = %+v, want the one count request under tenant default", usage.Tenants)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/inflight/deadbeef", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE of an unknown id = %d, want 404", resp.StatusCode)
	}
}

// TestInflightProgressMonotonic is the progress-monotonicity contract
// over HTTP, meant for -race runs: while slowed queries execute,
// concurrent /v1/inflight polls must never observe blocks-scanned,
// bytes-scanned or budget-fraction decreasing for any entry, every entry
// must eventually be removed (exactly once — the registry ends empty,
// not negative), and no goroutine may outlive its request.
func TestInflightProgressMonotonic(t *testing.T) {
	gBefore := runtime.NumGoroutine()
	sv := newStressServer(t)
	sv.QueryTimeout = 0
	sv.Budget = core.Budget{MaxScannedBytes: 1 << 30, MaxDecompressions: 1 << 20}
	sv.sources["arc"].arch.SetReadHook(faultinject.SlowRead(15 * time.Millisecond))
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	const queries = 3
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/v1/query?source=arc&q=ERROR&tenant=t%d", ts.URL, i))
			if err != nil {
				t.Errorf("query: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query status %d", resp.StatusCode)
			}
		}(i)
	}

	// Poll until all queries finish, checking monotonicity per entry id.
	type reading struct {
		searched, skipped, bytes, total int64
		frac                            float64
	}
	prev := map[string]reading{}
	observed := 0
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
poll:
	for {
		var view inflightResp
		getJSON(t, ts.URL+"/v1/inflight", http.StatusOK, &view)
		if !view.Enabled {
			t.Fatal("/v1/inflight reports disabled")
		}
		for _, e := range view.Inflight {
			observed++
			cur := reading{
				searched: e.BlocksSearched, skipped: e.BlocksSkipped,
				bytes: e.BytesScanned, total: e.BlocksTotal, frac: e.BudgetFraction,
			}
			if p, ok := prev[e.ID]; ok {
				if cur.searched < p.searched || cur.skipped < p.skipped ||
					cur.bytes < p.bytes || cur.total < p.total || cur.frac < p.frac {
					t.Fatalf("entry %s progress ran backwards: %+v then %+v", e.ID, p, cur)
				}
			}
			prev[e.ID] = cur
			if e.Tenant == "" || e.Endpoint != "query" {
				t.Fatalf("entry missing identity: %+v", e)
			}
		}
		select {
		case <-done:
			break poll
		case <-time.After(3 * time.Millisecond):
		}
	}
	if observed == 0 || len(prev) == 0 {
		t.Fatal("polls never observed an in-flight entry; slow the queries down")
	}
	// Every entry must have left the registry exactly once: a double
	// removal would have evicted a neighbor and tripped the checks above;
	// a missed removal leaves Len > 0 here.
	deadline := time.Now().Add(2 * time.Second)
	for sv.Liveops.Inflight.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight registry not drained: %d entries left", sv.Liveops.Inflight.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts.Client().CloseIdleConnections()
	ts.Close()
	waitGoroutinesSettle(t, gBefore)
}

// TestInflightCancelStalledQuery is the grep-oracle cancellation test:
// a query wedged on a stalled read is cancelled via DELETE
// /v1/inflight/{id}; the client gets its answer within 2x the poll
// interval — a 200 with zero matches, marked partial with a "cancelled"
// reason. Degraded, never wrong: no fabricated match lines.
func TestInflightCancelStalledQuery(t *testing.T) {
	sv := newStressServer(t)
	sv.QueryTimeout = 0
	sv.sources["arc"].arch.SetReadHook(faultinject.SlowRead(30 * time.Second))
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	type result struct {
		code    int
		traceID string
		body    queryResponse
		at      time.Time
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/query?source=arc&q=ERROR")
		if err != nil {
			resCh <- result{code: -1}
			return
		}
		defer resp.Body.Close()
		var qr queryResponse
		json.NewDecoder(resp.Body).Decode(&qr)
		resCh <- result{code: resp.StatusCode, traceID: resp.Header.Get("X-Trace-Id"), body: qr, at: time.Now()}
	}()

	// Poll until the stalled query shows up, like an operator would.
	const pollInterval = 100 * time.Millisecond
	var id string
	for deadline := time.Now().Add(5 * time.Second); id == ""; {
		var view inflightResp
		getJSON(t, ts.URL+"/v1/inflight", http.StatusOK, &view)
		for _, e := range view.Inflight {
			if !e.Cancellable {
				t.Fatalf("in-flight query not cancellable: %+v", e)
			}
			id = e.ID
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled query never appeared in /v1/inflight")
		}
		if id == "" {
			time.Sleep(pollInterval)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/inflight/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cancelledAt := time.Now()
	var dr map[string]string
	json.NewDecoder(resp.Body).Decode(&dr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || dr["cancelled"] != id {
		t.Fatalf("DELETE = %d %v, want 200 {cancelled: %s}", resp.StatusCode, dr, id)
	}

	select {
	case res := <-resCh:
		if lat := res.at.Sub(cancelledAt); lat > 2*pollInterval {
			t.Errorf("cancelled query answered %v after the DELETE, want <= %v", lat, 2*pollInterval)
		}
		if res.code != http.StatusOK {
			t.Fatalf("cancelled query status = %d, want 200", res.code)
		}
		if !res.body.Partial || !strings.Contains(res.body.PartialTo, "cancelled") {
			t.Fatalf("cancelled query response not marked cancelled-partial: %+v", res.body)
		}
		if len(res.body.Lines) != 0 || len(res.body.Entries) != 0 || res.body.Matches != 0 {
			t.Fatalf("cancelled query fabricated results: %+v", res.body)
		}
		// The live entry and the response belong to the same trace.
		if res.traceID != id {
			t.Errorf("inflight id %s != response X-Trace-Id %s", id, res.traceID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled query never answered its client")
	}

	// The handler has unwound; its entry must drain, and a second DELETE
	// finds nothing.
	deadline := time.Now().Add(2 * time.Second)
	for sv.Liveops.Inflight.Len() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/inflight/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", resp.StatusCode)
	}
}

// TestLiveopsE2E is the acceptance pass: a slowed query observed in
// /v1/inflight joins its eventual wide event by trace id with progress
// consistent with the event's counters; per-tenant usage totals
// reconcile exactly with the summed wide events; and an SLO fast burn
// captures a flight-recorder bundle whose manifest names the objective.
func TestLiveopsE2E(t *testing.T) {
	sv := newStressServer(t, liveops.Objective{
		Name: "query-latency", Target: 0.99, Window: 30 * 24 * time.Hour,
		LatencyThreshold: time.Nanosecond, // every request breaches: instant fast burn
	})
	buf := &syncBuffer{}
	sv.Events = obsv.NewEventLog(buf, 0, 0)
	dir := t.TempDir()
	rec := flightrec.NewRecorder(flightrec.Config{Dir: dir})
	sv.FlightRec = rec
	sv.Liveops.SLO.OnFastBurn(rec.RecordSLOBurn)
	sv.sources["arc"].arch.SetReadHook(faultinject.SlowRead(10 * time.Millisecond))
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	// One slowed query per tenant, polled while in flight.
	// Distinct queries per tenant: identical queries would let the second
	// hit the result cache and scan nothing, making reconciliation vacuous.
	tenants := map[string]string{
		"acme":  "?tenant=acme&q=ERROR",
		"bravo": "?q=INFO", // tenant via header below
	}
	liveByID := map[string]liveops.EntryView{}
	for tenant, params := range tenants {
		done := make(chan struct{})
		go func() {
			defer close(done)
			req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/query"+params+"&source=arc", nil)
			if tenant == "bravo" {
				req.Header.Set("X-Loggrep-Tenant", "bravo")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("query: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		running := true
		for running {
			var view inflightResp
			getJSON(t, ts.URL+"/v1/inflight", http.StatusOK, &view)
			for _, e := range view.Inflight {
				liveByID[e.ID] = e
				if e.Tenant != tenant {
					t.Errorf("in-flight tenant %q, want %q", e.Tenant, tenant)
				}
			}
			select {
			case <-done:
				running = false
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	if len(liveByID) != 2 {
		t.Fatalf("captured %d live entries, want 2", len(liveByID))
	}

	// The live view joins the retrospective one: same trace id, and the
	// event's final counters are >= any in-flight observation.
	events := parseEvents(t, buf.String())
	if len(events) != 2 {
		t.Fatalf("got %d wide events, want 2", len(events))
	}
	for _, ev := range events {
		live, ok := liveByID[ev.TraceID]
		if !ok {
			t.Fatalf("wide event trace %s never seen in /v1/inflight (saw %v)", ev.TraceID, liveByID)
		}
		if live.BlocksSearched > ev.BlocksSearched || live.BytesScanned > ev.BytesScanned {
			t.Errorf("live progress exceeds final event: live %+v event blocks=%d bytes=%d",
				live, ev.BlocksSearched, ev.BytesScanned)
		}
	}

	// Usage reconciliation: the meter's totals are exactly the summed
	// wide-event engine-work fields, per tenant.
	wantScan := map[string]int64{}
	wantDec := map[string]int64{}
	for _, ev := range events {
		wantScan[ev.Tenant] += ev.BytesScanned
		wantDec[ev.Tenant] += ev.Decompressions
	}
	for tenant := range tenants {
		got := usageTotal(sv, tenant)
		if got.Requests != 1 || got.ScanBytes != wantScan[tenant] || got.Decompressions != wantDec[tenant] {
			t.Errorf("tenant %s usage %+v does not reconcile with wide events (want scan=%d dec=%d)",
				tenant, got, wantScan[tenant], wantDec[tenant])
		}
		if wantScan[tenant] == 0 {
			t.Errorf("tenant %s scanned nothing; the reconciliation is vacuous", tenant)
		}
	}

	// The 1ns latency objective makes both requests bad: the engine is in
	// fast burn and must have captured a bundle naming the objective.
	var slo struct {
		Objectives []liveops.ObjectiveStatus `json:"objectives"`
	}
	getJSON(t, ts.URL+"/v1/slo", http.StatusOK, &slo)
	if len(slo.Objectives) != 1 || !slo.Objectives[0].FastBurn || slo.Objectives[0].Bad != 2 {
		t.Fatalf("SLO status %+v, want fast burn with 2 bad requests", slo.Objectives)
	}
	var bundle string
	for deadline := time.Now().Add(5 * time.Second); bundle == ""; time.Sleep(20 * time.Millisecond) {
		ms, _ := filepath.Glob(filepath.Join(dir, "bundle-*.json"))
		if len(ms) > 0 {
			bundle = ms[0]
		} else if time.Now().After(deadline) {
			t.Fatal("fast burn never produced a flight-recorder bundle")
		}
	}
	b, err := flightrec.LoadBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if want := "slo-fast-burn:query-latency"; b.Manifest.Trigger != want {
		t.Fatalf("bundle trigger %q, want %q", b.Manifest.Trigger, want)
	}
	_ = os.Remove(bundle)
}

// TestIngestMetersTenantUsage: the write path attributes acknowledged
// bytes and lines to its tenant.
func TestIngestMetersTenantUsage(t *testing.T) {
	sv := newStressServer(t)
	m, _, err := ingest.Open(ingest.Config{
		Dir:            t.TempDir(),
		SealBytes:      1 << 30,
		SealAge:        time.Hour,
		MaxTenantBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	sv.Ingest = m
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	body := "alpha one\nalpha two\nalpha three\n"
	resp, err := http.Post(ts.URL+"/ingest?tenant=acme&stream=app", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	got := usageTotal(sv, "acme")
	if got.IngestBytes != int64(len(body)) || got.IngestLines != 3 || got.Requests != 1 {
		t.Fatalf("acme ingest usage %+v, want %d bytes / 3 lines / 1 request", got, len(body))
	}
}

// BenchmarkQueryLiveops is BenchmarkQueryWideEvents plus one SLO
// objective, so every request is also classified and recorded by the
// burn-rate engine.
func BenchmarkQueryLiveops(b *testing.B) {
	lt, _ := loggen.ByName("A")
	block := lt.Block(5, 3000)
	sv := New(liveops.Config{
		Registry: obsv.NewRegistry(),
		Objectives: []liveops.Objective{
			{Name: "availability", Target: 0.999, Window: 30 * 24 * time.Hour},
		},
	})
	sv.Events = obsv.NewEventLog(io.Discard, 0, 0)
	if err := sv.Load("boxA", core.Compress(block, core.DefaultOptions())); err != nil {
		b.Fatal(err)
	}
	h := sv.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest("GET", fmt.Sprintf("/v1/query?source=boxA&q=needle%dmissing", i), nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// TestUsageMetersEveryRead: /v1/query and /v1/count meter their engine
// work on every kind of source — a loaded archive, and an ingest stream of
// two sealed segments plus a raw tail. Each event carries the bytes scanned
// and payloads decompressed, a count agrees with its query, and the
// tenant's usage total is exactly the sum over the emitted wide events
// (the reconciliation OPERATIONS.md promises). Before Search reached every
// source, counts and stream queries ran untraced and billed zero.
func TestUsageMetersEveryRead(t *testing.T) {
	lt, _ := loggen.ByName("A")
	sv := newServer()
	buf := &syncBuffer{}
	sv.Events = obsv.NewEventLog(buf, 0, 0)
	m, _, err := ingest.Open(ingest.Config{Dir: t.TempDir(), SealBytes: 1 << 30, SealAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	sv.Ingest = m
	// Each source exists twice, once for the query and once for the count,
	// so both requests start cold and have capsules to read.
	for _, use := range []string{"query", "count"} {
		if err := sv.Load("arc-"+use, lifecycleArchive()); err != nil {
			t.Fatal(err)
		}
		for seg := 0; seg < 3; seg++ {
			lines := strings.Split(strings.TrimSuffix(string(lt.Block(int64(20+seg), 400)), "\n"), "\n")
			if err := m.Append("acme", use, lines); err != nil {
				t.Fatal(err)
			}
			if seg < 2 { // the third batch stays the raw tail
				if err := m.TriggerSeal(context.Background(), "acme", use); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, info := range m.Snapshot() {
		if info.SealedSegs != 2 || info.RawBytes == 0 {
			t.Fatalf("stream shape %+v, want 2 sealed segments and a raw tail", info)
		}
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	for _, src := range []string{"arc-", "acme/"} {
		var qr queryResponse
		var cr struct{ Matches int }
		getJSON(t, ts.URL+"/v1/query?tenant=acme&q=ERROR&source="+escape(src+"query"), http.StatusOK, &qr)
		getJSON(t, ts.URL+"/v1/count?tenant=acme&q=ERROR&source="+escape(src+"count"), http.StatusOK, &cr)
		if qr.Matches == 0 || cr.Matches != qr.Matches {
			t.Errorf("%s*: query matched %d, count %d", src, qr.Matches, cr.Matches)
		}
	}

	evs := parseEvents(t, buf.String())
	if len(evs) != 4 {
		t.Fatalf("got %d wide events, want 4", len(evs))
	}
	var sum liveops.Usage
	for _, ev := range evs {
		if ev.Status != http.StatusOK || ev.BytesScanned == 0 || ev.Decompressions == 0 {
			t.Errorf("%s on %s: status %d, bytes_scanned %d, decompressions %d: capsules were read, the event must say so",
				ev.Endpoint, ev.Source, ev.Status, ev.BytesScanned, ev.Decompressions)
		}
		sum.Requests++
		sum.ScanBytes += ev.BytesScanned
		sum.Decompressions += ev.Decompressions
	}
	got := usageTotal(sv, "acme")
	if got.Requests != sum.Requests || got.ScanBytes != sum.ScanBytes || got.Decompressions != sum.Decompressions {
		t.Errorf("usage total %+v does not reconcile with the wide events' sum %+v", got, sum)
	}
}

// TestUsageBillsCutQueries: a query cut short — by the scan budget on a
// bare box, a multi-block archive and a sealed stream, by its deadline (a
// 504), or by DELETE /v1/inflight — is billed for the work it did, and the
// tenant's /v1/usage is the sum over the events. The events used to sum
// their work off the trace's spans, which a budget-cut filter left bare and
// a failed or cancelled query never read: the scan-capped box query, the
// costliest kind, billed 0 bytes and 0 decompressions.
func TestUsageBillsCutQueries(t *testing.T) {
	lt, _ := loggen.ByName("A")
	block := lt.Block(11, 4000)
	sv := newServer()
	buf := &syncBuffer{}
	sv.Events = obsv.NewEventLog(buf, 0, 0)
	m, _, err := ingest.Open(ingest.Config{Dir: t.TempDir(), SealBytes: 1 << 30, SealAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	sv.Ingest = m
	lines := logparse.SplitLines(block)
	for seg := 0; seg < 3; seg++ {
		if err := m.Append("acme", "app", lines[seg*len(lines)/3:(seg+1)*len(lines)/3]); err != nil {
			t.Fatal(err)
		}
		if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.Load("box", core.Compress(block, core.DefaultOptions())); err != nil {
		t.Fatal(err)
	}
	aopts := archive.DefaultOptions()
	aopts.BlockBytes = len(block) / 14
	arc, err := archive.Compress(block, aopts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"arc", "arc-slow", "arc-cancel"} {
		if err := sv.Load(name, arc); err != nil {
			t.Fatal(err)
		}
	}
	sv.sources["arc-slow"].arch.SetReadHook(faultinject.SlowRead(20 * time.Millisecond))
	sv.sources["arc-cancel"].arch.SetReadHook(faultinject.SlowRead(20 * time.Millisecond))
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	query := func(src, extra string) string {
		return ts.URL + "/v1/query?tenant=acme&q=20012&source=" + escape(src) + extra
	}

	const scanCap = 30_000
	sv.Budget = core.Budget{MaxScannedBytes: scanCap}
	for _, src := range []string{"box", "arc", "acme/app"} {
		var qr queryResponse
		getJSON(t, query(src, ""), http.StatusOK, &qr)
		if !qr.Partial || !strings.Contains(qr.PartialTo, "budget") {
			t.Fatalf("%s: a %d-byte scan cap did not cut the query: %+v", src, scanCap, qr)
		}
	}
	sv.Budget = core.Budget{}
	getJSON(t, query("arc-slow", "&timeout_ms=200"), http.StatusGatewayTimeout, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(query("arc-cancel", ""))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		var qr queryResponse
		json.NewDecoder(resp.Body).Decode(&qr)
		if resp.StatusCode != http.StatusOK || !qr.Partial || !strings.Contains(qr.PartialTo, "cancelled") {
			t.Errorf("cancelled query answered %d %+v", resp.StatusCode, qr)
		}
	}()
	var id string
	waitFor(t, "the stalled query to decompress a capsule", func() bool {
		for _, v := range sv.Liveops.Inflight.Snapshot() {
			if v.Decompressions > 0 {
				id = v.ID
			}
		}
		return id != ""
	})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/inflight/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	<-done

	evs := parseEvents(t, buf.String())
	if len(evs) != 5 {
		t.Fatalf("got %d wide events, want 5", len(evs))
	}
	var sum liveops.Usage
	for _, ev := range evs {
		switch {
		case ev.Status == http.StatusOK && strings.Contains(ev.PartialReason, "budget"):
			if ev.BytesScanned < scanCap || ev.Decompressions < 1 {
				t.Errorf("scan-capped query on %s billed %d bytes and %d decompressions, want >= %d and >= 1",
					ev.Source, ev.BytesScanned, ev.Decompressions, scanCap)
			}
		case ev.BytesScanned == 0 && ev.Decompressions == 0:
			t.Errorf("status %d (%s) on %s billed no work", ev.Status, ev.Error, ev.Source)
		}
		sum.Requests++
		sum.ScanBytes += ev.BytesScanned
		sum.Decompressions += ev.Decompressions
	}
	if got := usageTotal(sv, "acme"); got.Requests != sum.Requests || got.ScanBytes != sum.ScanBytes || got.Decompressions != sum.Decompressions {
		t.Errorf("usage total %+v does not reconcile with the wide events' sum %+v", got, sum)
	}
}

// TestInflightKeySet: an in-flight entry that reads its request's wide event
// and meter keeps every JSON key it had when it held copies of them. The
// list was recorded on the commit before that change, for this request: a
// deadlined archive query stalled in its first blocks, whose command has a
// canonical form of its own.
func TestInflightKeySet(t *testing.T) {
	sv := newStressServer(t)
	sv.Budget = core.Budget{MaxDecompressions: 1 << 20}
	sv.sources["arc"].arch.SetReadHook(faultinject.SlowRead(30 * time.Second))
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/query?source=arc&timeout_ms=60000&q=" + escape("ERROR   OR  INFO"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	var entry map[string]any
	waitFor(t, "the stalled query searching blocks", func() bool {
		var view struct {
			Inflight []map[string]any `json:"inflight"`
		}
		getJSON(t, ts.URL+"/v1/inflight", http.StatusOK, &view)
		if len(view.Inflight) != 1 || view.Inflight[0]["blocks_searched"] == nil {
			return false
		}
		entry = view.Inflight[0]
		return true
	})
	var keys []string
	for k := range entry {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"age_ms", "blocks_searched", "blocks_total", "budget_fraction", "bytes_scanned", "cancellable",
		"deadline_ms", "decompressions", "endpoint", "id", "query", "query_canonical", "source", "stage", "start_time", "tenant"}
	if !slices.Equal(keys, want) {
		t.Errorf("in-flight entry keys %v, want %v", keys, want)
	}
	if entry["query_canonical"] != "(ERROR OR INFO)" || entry["stage"] != "filter" {
		t.Errorf("entry %v", entry)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/inflight/"+entry["id"].(string), nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	<-done
}
