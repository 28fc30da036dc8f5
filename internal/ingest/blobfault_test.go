package ingest

import (
	"context"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"loggrep/internal/blobstore"
	"loggrep/internal/core"
	"loggrep/internal/faultinject"
)

// sealTwoPlusTail builds a stream with two sealed segments and a raw
// tail: lines 0-99 sealed, 100-149 sealed, 150-169 raw.
func sealTwoPlusTail(t *testing.T, m *Manager) (st *Stream, want []string) {
	t.Helper()
	for i := 0; i < 170; i++ {
		want = append(want, lineFor(i))
	}
	appendLines(t, m, "acme", "app", want[:100]...)
	if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
		t.Fatal(err)
	}
	appendLines(t, m, "acme", "app", want[100:150]...)
	if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
		t.Fatal(err)
	}
	appendLines(t, m, "acme", "app", want[150:]...)
	return m.Lookup("acme/app"), want
}

func lineFor(i int) string {
	status := "ok"
	if i%10 == 3 {
		status = "ERROR"
	}
	return strings.Repeat("x", i%7) + " req " + status + " id=" + string(rune('a'+i%26))
}

// TestQueryDegradesWhenSealedSegmentUnreadable covers the core contract:
// a sealed segment the blob layer cannot serve degrades the query to
// Partial "storage" with the gap reported as damage, while matches from
// every other segment and the raw tail still arrive.
func TestQueryDegradesWhenSealedSegmentUnreadable(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.MaxSealedBytes = 1 // evict everything: every query reloads from the store
	chaos := faultinject.NewChaosBlob(blobstore.NewLocal(dir), 1)
	cfg.Blobs = blobstore.Wrap(chaos, blobstore.Policy{
		MaxAttempts: 2, BackoffBase: 1, BackoffMax: 2, BreakerFailures: -1,
	})
	m := mustOpen(t, cfg)
	defer m.Close()
	st, want := sealTwoPlusTail(t, m)

	// Healthy: all matches, no partial.
	base := queryAll(t, st, "ERROR")
	wantMatches := 0
	for _, l := range want {
		if strings.Contains(l, "ERROR") {
			wantMatches++
		}
	}
	if len(base.Lines) != wantMatches || base.Partial {
		t.Fatalf("healthy query: %d matches partial=%v, want %d matches", len(base.Lines), base.Partial, wantMatches)
	}

	// Backend hard-down: the evicted sealed segment sheds (the other is
	// still cache-resident and keeps serving — resident archives never
	// touch storage), and the raw tail still answers.
	chaos.SetErrRate(1)
	res, err := st.Search(context.Background(), "ERROR", core.SearchOpts{})
	if err != nil {
		t.Fatalf("query with storage down must degrade, not fail: %v", err)
	}
	if !res.Partial || res.PartialReason != "storage" {
		t.Fatalf("partial=%v reason=%q, want storage partial", res.Partial, res.PartialReason)
	}
	if len(res.Damaged) != 1 {
		t.Fatalf("damaged = %v, want exactly the evicted segment", res.Damaged)
	}
	d := res.Damaged[0]
	if d.NumLines != 100 && d.NumLines != 50 {
		t.Fatalf("damage range = %+v, want a whole sealed segment", d)
	}
	// Every returned match must come from outside the shed range and be
	// byte-identical to the healthy result's line — a subset, never wrong.
	for i, ln := range res.Lines {
		if ln >= d.FirstLine && ln < d.FirstLine+d.NumLines {
			t.Fatalf("match at line %d inside the shed range [%d,+%d)", ln, d.FirstLine, d.NumLines)
		}
		if res.Entries[i] != want[ln] {
			t.Fatalf("line %d: entry %q, want %q", ln, res.Entries[i], want[ln])
		}
	}
	if len(res.Lines) >= len(base.Lines) {
		t.Fatalf("degraded result has %d matches, healthy had %d; a whole segment should be missing",
			len(res.Lines), len(base.Lines))
	}

	// Backend heals: full results come back with no restart.
	chaos.SetErrRate(0)
	res = queryAll(t, st, "ERROR")
	if len(res.Lines) != wantMatches || res.Partial {
		t.Fatalf("healed query: %d matches partial=%v, want full recovery", len(res.Lines), res.Partial)
	}
}

// TestQueryRetriesTornReload covers the torn-read path: corrupted bytes
// pass the I/O layer, fail archive validation, and the reload loop
// re-fetches instead of surfacing garbage or an error.
func TestQueryRetriesTornReload(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.MaxSealedBytes = 1
	chaos := faultinject.NewChaosBlob(blobstore.NewLocal(dir), 99)
	cfg.Blobs = blobstore.Wrap(chaos, blobstore.Policy{MaxAttempts: 2, BackoffBase: 1, BreakerFailures: -1})
	m := mustOpen(t, cfg)
	defer m.Close()
	st, want := sealTwoPlusTail(t, m)

	chaos.SetTornRate(0.5)
	wantMatches := 0
	for _, l := range want {
		if strings.Contains(l, "ERROR") {
			wantMatches++
		}
	}
	full := 0
	for i := 0; i < 20; i++ {
		res, err := st.Search(context.Background(), "ERROR", core.SearchOpts{})
		if err != nil {
			t.Fatalf("query %d: torn reads must degrade or heal, not error: %v", i, err)
		}
		if !res.Partial {
			if len(res.Lines) != wantMatches {
				t.Fatalf("query %d: full result with %d matches, want %d", i, len(res.Lines), wantMatches)
			}
			full++
		}
		for j, ln := range res.Lines {
			if res.Entries[j] != want[ln] {
				t.Fatalf("query %d: wrong entry at line %d", i, ln)
			}
		}
	}
	if full == 0 {
		t.Fatal("torn rate 0.5 with re-fetch never produced a full result in 20 queries")
	}
	if chaos.Torn() == 0 {
		t.Fatal("no torn reads were actually injected")
	}
}

// TestReplayQuarantinesCorruptSealedSegment covers startup: a sealed
// archive corrupted on disk with no WAL fallback must not block Open;
// the stream serves around it and reports the gap.
func TestReplayQuarantinesCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, testConfig(dir))
	st, want := sealTwoPlusTail(t, m)
	_ = st
	m.Close()

	// Corrupt sealed segment 1 beyond recognition.
	p := segPath(dir+"/acme/app", 1)
	if err := os.WriteFile(p, []byte("not an archive at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2, stats, err := Open(testConfig(dir))
	if err != nil {
		t.Fatalf("Open with corrupt sealed segment must degrade, not fail: %v", err)
	}
	defer m2.Close()
	if stats.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", stats.Quarantined)
	}
	st2 := m2.Lookup("acme/app")
	res, err := st2.Search(context.Background(), "ERROR", core.SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.PartialReason != "storage" {
		t.Fatalf("partial=%v reason=%q, want storage partial", res.Partial, res.PartialReason)
	}
	if len(res.Damaged) != 1 || res.Damaged[0].Block != 1 {
		t.Fatalf("damaged = %+v, want segment 1", res.Damaged)
	}
	// Lines shift down by the quarantined segment's (unknown) count, but
	// every returned entry must still be a real line from the surviving
	// segments — verify against the survivors' concatenation.
	survivors := append(append([]string{}, want[100:150]...), want[150:]...)
	for i, ln := range res.Lines {
		if ln >= len(survivors) || res.Entries[i] != survivors[ln] {
			t.Fatalf("match %d: (%d, %q) not in surviving lines", i, ln, res.Entries[i])
		}
	}
	// Diagnostics surface the quarantine.
	for _, info := range m2.Snapshot() {
		if info.Tenant == "acme" && info.Quarantined != 1 {
			t.Fatalf("Info.Quarantined = %d, want 1", info.Quarantined)
		}
	}
}

// tornFirstRead serves a blob store, except that the first read of key
// comes back truncated: a torn read the I/O layer cannot see.
type tornFirstRead struct {
	blobstore.BlobStore
	key  string
	torn atomic.Bool
}

func (b *tornFirstRead) Get(ctx context.Context, key string) ([]byte, error) {
	data, err := b.BlobStore.Get(ctx, key)
	if err == nil && key == b.key && b.torn.CompareAndSwap(false, true) {
		return data[:len(data)/2], nil
	}
	return data, err
}

// TestReplayRetriesTornSegmentRead: replay loads sealed segments through
// the query-time loader, so one torn read at startup is re-fetched like
// one at query time — it neither quarantines a healthy segment until
// restart nor pins a damaged copy in the resident cache.
func TestReplayRetriesTornSegmentRead(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, testConfig(dir))
	_, want := sealTwoPlusTail(t, m)
	m.Close()

	cfg := testConfig(dir)
	blobs := &tornFirstRead{BlobStore: blobstore.NewLocal(dir), key: "acme/app/seg-00000001.lgrep"}
	cfg.Blobs = blobs
	m2, stats, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if !blobs.torn.Load() {
		t.Fatal("the torn read was never served")
	}
	if stats.Quarantined != 0 || stats.SealedSegs != 2 {
		t.Fatalf("replay: %d quarantined, %d sealed segments; want 0 and 2", stats.Quarantined, stats.SealedSegs)
	}
	res := queryAll(t, m2.Lookup("acme/app"), "req")
	if res.Partial || len(res.Damaged) != 0 {
		t.Fatalf("partial=%v (%q), damaged=%v: want the whole stream", res.Partial, res.PartialReason, res.Damaged)
	}
	if len(res.Lines) != len(want) {
		t.Fatalf("%d of %d lines served", len(res.Lines), len(want))
	}
	for i, ln := range res.Lines {
		if ln != i || res.Entries[i] != want[i] {
			t.Fatalf("match %d: line %d %q, want line %d %q", i, ln, res.Entries[i], i, want[i])
		}
	}
}

// TestReplayFallsBackToWALWhenArchiveCorrupt covers the crash window
// between a seal's publish and its WAL cleanup: if the archive side is
// the broken copy, the WAL must win and nothing is lost.
func TestReplayFallsBackToWALWhenArchiveCorrupt(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.sealHook = func(stage string) error {
		if stage == "published" {
			return errBoom // crash after publish, before WAL cleanup
		}
		return nil
	}
	m := mustOpen(t, cfg)
	var want []string
	for i := 0; i < 50; i++ {
		want = append(want, lineFor(i))
	}
	appendLines(t, m, "acme", "app", want...)
	if err := m.TriggerSeal(context.Background(), "acme", "app"); err == nil {
		t.Fatal("sealHook should have aborted the seal after publish")
	}
	m.abandon()

	sdir := dir + "/acme/app"
	if _, err := os.Stat(segPath(sdir, 1)); err != nil {
		t.Fatalf("published archive missing: %v", err)
	}
	if _, err := os.Stat(walPath(sdir, 1)); err != nil {
		t.Fatalf("WAL should survive the aborted cleanup: %v", err)
	}
	// The published archive is the broken copy.
	if err := os.WriteFile(segPath(sdir, 1), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2, stats, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if stats.WALFallbacks != 1 || stats.Quarantined != 0 {
		t.Fatalf("fallbacks=%d quarantined=%d, want 1/0", stats.WALFallbacks, stats.Quarantined)
	}
	st := m2.Lookup("acme/app")
	if got := st.NumLines(); got != len(want) {
		t.Fatalf("lines after fallback = %d, want %d (nothing lost)", got, len(want))
	}
	res := queryAll(t, st, "ERROR")
	for i, ln := range res.Lines {
		if res.Entries[i] != want[ln] {
			t.Fatalf("line %d: %q, want %q", ln, res.Entries[i], want[ln])
		}
	}
	if res.Partial {
		t.Fatal("WAL fallback must yield a full, non-partial result")
	}
}
