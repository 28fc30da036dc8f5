package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"loggrep/internal/blobstore"
	"loggrep/internal/faultinject"
	"loggrep/internal/ingest"
	"loggrep/internal/obsv"
)

// TestQueryDegradesUnderStorageFaults is the end-to-end degraded-read
// check: an ingest stream whose sealed segments live behind a failing
// blob backend still answers /v1/query with HTTP 200, flags the result
// partial with reason "storage", names the damaged range, and stamps
// the blob-layer retry accounting into the request's wide event.
func TestQueryDegradesUnderStorageFaults(t *testing.T) {
	dir := t.TempDir()
	chaos := faultinject.NewChaosBlob(blobstore.NewLocal(dir), 7)
	m, _, err := ingest.Open(ingest.Config{
		Dir:            dir,
		SealBytes:      1 << 30,
		SealAge:        time.Hour,
		MaxTenantBytes: 1 << 20,
		MaxSealedBytes: 1, // evict down to one resident archive: queries must reload
		Blobs: blobstore.Wrap(chaos, blobstore.Policy{
			MaxAttempts: 2, BackoffBase: time.Microsecond, BackoffMax: 10 * time.Microsecond,
			BreakerFailures: -1, Name: "test",
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	buf := &syncBuffer{}
	sv := New()
	sv.Ingest = m
	sv.Events = obsv.NewEventLog(buf, 0, 0)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)

	// Two sealed segments: the LRU pins one resident, so faulting the
	// backend leaves exactly the evicted one unreadable.
	postIngest(t, ts.URL+"/ingest?tenant=acme&stream=app", "text/plain",
		"one ERROR alpha\ntwo ok\nthree ERROR beta\n", http.StatusOK)
	if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
		t.Fatal(err)
	}
	postIngest(t, ts.URL+"/ingest?tenant=acme&stream=app", "text/plain",
		"four ok\nfive ERROR gamma\nsix ok\n", http.StatusOK)
	if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
		t.Fatal(err)
	}

	// Healthy: all three matches, not partial.
	var q queryResponse
	getJSON(t, ts.URL+"/v1/query?source=acme/app&q=ERROR", http.StatusOK, &q)
	if q.Matches != 3 || q.Partial {
		t.Fatalf("healthy query = %+v", q)
	}

	chaos.SetErrRate(1)
	var deg queryResponse
	getJSON(t, ts.URL+"/v1/query?source=acme/app&q=ERROR", http.StatusOK, &deg)
	if !deg.Partial || deg.PartialTo != "storage" {
		t.Fatalf("degraded query: partial=%v reason=%q, want partial with reason storage",
			deg.Partial, deg.PartialTo)
	}
	if len(deg.Damaged) == 0 {
		t.Fatalf("degraded query reported no damaged ranges: %+v", deg)
	}
	if deg.Matches >= 3 {
		t.Fatalf("degraded query still returned all %d matches; the backend was supposed to be down", deg.Matches)
	}
	// Every match it did return must be one of the healthy entries.
	healthy := map[string]bool{}
	for _, e := range q.Entries {
		healthy[e] = true
	}
	for _, e := range deg.Entries {
		if !healthy[e] {
			t.Fatalf("degraded query invented entry %q", e)
		}
	}

	// Recovery without restart: heal the backend and the gap closes.
	chaos.SetErrRate(0)
	var back queryResponse
	getJSON(t, ts.URL+"/v1/query?source=acme/app&q=ERROR", http.StatusOK, &back)
	if back.Matches != 3 || back.Partial {
		t.Fatalf("post-recovery query = %+v", back)
	}

	// The degraded request's wide event carries the blob-layer story:
	// operations were issued, and at least one ultimately failed.
	evs := parseEvents(t, buf.String())
	var degEv *obsv.WideEvent
	for i := range evs {
		if evs[i].Endpoint == "query" && evs[i].Partial {
			degEv = &evs[i]
		}
	}
	if degEv == nil {
		t.Fatalf("no partial query wide event among %d events", len(evs))
	}
	if degEv.PartialReason != "storage" {
		t.Fatalf("wide event partial_reason = %q, want storage", degEv.PartialReason)
	}
	if degEv.BlobOps == 0 {
		t.Fatalf("wide event blob_ops = 0; blob accounting never reached the event: %+v", degEv)
	}
	if degEv.BlobFailed == 0 {
		t.Fatalf("wide event blob_failed = 0 for a degraded read: %+v", degEv)
	}
	if degEv.BlobRetries == 0 {
		t.Fatalf("wide event blob_retries = 0 with MaxAttempts=2 and a dead backend: %+v", degEv)
	}
}
