package ingest

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// sealCount counts sealed segments across a manager's streams.
func sealedTotals(m *Manager) (segs int, bytes int64) {
	for _, info := range m.Snapshot() {
		segs += info.SealedSegs
		bytes += info.SealedSize
	}
	return segs, bytes
}

// TestSealedCacheBoundsResidency proves sealed segments are not pinned in
// memory forever: with a tiny resident budget the cache holds a fraction
// of the sealed bytes, and queries transparently reload evicted archives
// from disk with identical results — both in the sealing process and
// after a restart's replay.
func TestSealedCacheBoundsResidency(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.MaxSealedBytes = 1 // evict down to a single resident archive
	m := mustOpen(t, cfg)

	var acked []string
	for seg := 0; seg < 5; seg++ {
		var lines []string
		for i := 0; i < 200; i++ {
			lines = append(lines, fmt.Sprintf("seg=%d line=%03d payload=%s", seg, i, strings.Repeat("x", 40)))
		}
		appendLines(t, m, "t", "s", lines...)
		acked = append(acked, lines...)
		if err := m.TriggerSeal(context.Background(), "t", "s"); err != nil {
			t.Fatalf("seal %d: %v", seg, err)
		}
	}
	segs, total := sealedTotals(m)
	if segs < 5 {
		t.Fatalf("sealed %d segments, want >= 5", segs)
	}
	if res := m.cache.resident(); res >= total {
		t.Fatalf("resident %d bytes >= total sealed %d: nothing was evicted", res, total)
	}
	verifyExactlyOnce(t, m, acked) // queries reload evicted segments
	st := m.Lookup("t/s")
	for _, i := range []int{0, len(acked) / 2, len(acked) - 1} {
		got, err := st.Entry(context.Background(), i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if got != acked[i] {
			t.Fatalf("entry %d = %q, want %q", i, got, acked[i])
		}
	}
	m.Close()

	// A restart's replay must not pin the whole history either.
	m2 := mustOpen(t, cfg)
	defer m2.Close()
	if res := m2.cache.resident(); res >= total {
		t.Fatalf("resident after replay %d bytes >= total sealed %d", res, total)
	}
	verifyExactlyOnce(t, m2, acked)
}

// TestWALFsyncFailureRollback proves a batch NACKed on fsync failure
// stays NACKed: the record is truncated out of the WAL, the stream keeps
// accepting appends (no latched death), and a restart's replay does not
// resurrect the refused lines — so a client retry cannot duplicate them.
func TestWALFsyncFailureRollback(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	fail := false
	cfg.walSyncHook = func() error {
		if fail {
			fail = false
			return fmt.Errorf("injected fsync failure")
		}
		return nil
	}
	m := mustOpen(t, cfg)
	defer m.Close()

	rollbacks := mWALRollbacks.Value()
	appendLines(t, m, "t", "s", "acked before")
	fail = true
	err := m.Append("t", "s", []string{"never acked"})
	if err == nil || !strings.Contains(err.Error(), "injected fsync failure") {
		t.Fatalf("append during fsync failure: err = %v", err)
	}
	if got := mWALRollbacks.Value(); got != rollbacks+1 {
		t.Fatalf("wal_rollbacks = %d, want %d", got, rollbacks+1)
	}
	// The stream recovered onto a fresh WAL segment instead of latching.
	appendLines(t, m, "t", "s", "acked after")
	verifyExactlyOnce(t, m, []string{"acked before", "acked after"})

	m.abandon()
	m2 := mustOpen(t, testConfig(dir))
	defer m2.Close()
	verifyExactlyOnce(t, m2, []string{"acked before", "acked after"})
}

// TestSealFailureBacksOff proves a persistently failing seal is retried
// with exponential backoff instead of re-compressing the segment every
// SealInterval.
func TestSealFailureBacksOff(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir) // SealInterval 10ms
	var attempts atomic.Int64
	cfg.sealHook = func(stage string) error {
		if stage == "compressed" {
			attempts.Add(1)
			return fmt.Errorf("injected persistent failure")
		}
		return nil
	}
	m := mustOpen(t, cfg)
	defer m.Close()
	appendLines(t, m, "t", "s", "line one", "line two")
	if err := m.TriggerSeal(context.Background(), "t", "s"); err == nil {
		t.Fatal("seal should have failed")
	}
	c0 := attempts.Load()
	time.Sleep(500 * time.Millisecond)
	// Backoff schedule from a 10ms base (10, 20, 40, ... capped) admits
	// ~6 attempts in 500ms; retrying every 10ms tick would make ~50.
	if got := attempts.Load() - c0; got > 10 {
		t.Fatalf("%d seal attempts in 500ms: retry loop is not backing off", got)
	}
	// The raw segment is still queryable throughout.
	verifyExactlyOnce(t, m, []string{"line one", "line two"})
}

// TestTriggerSealUnderLoad proves a forced seal bounds itself to the
// segments existing at entry: with appenders continuously creating fresh
// active segments, TriggerSeal must still return success promptly rather
// than chasing the moving tail until its deadline.
func TestTriggerSealUnderLoad(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SealBytes = 4 << 10 // keep segments rolling under the appender
	m := mustOpen(t, cfg)
	defer m.Close()

	appendLines(t, m, "t", "s", "first line")
	stopAppend := make(chan struct{})
	appenderDone := make(chan struct{})
	go func() {
		defer close(appenderDone)
		for i := 0; ; i++ {
			select {
			case <-stopAppend:
				return
			default:
			}
			_ = m.Append("t", "s", []string{fmt.Sprintf("background line %d %s", i, strings.Repeat("y", 100))})
		}
	}()
	t0 := time.Now()
	err := m.TriggerSeal(context.Background(), "t", "s")
	elapsed := time.Since(t0)
	close(stopAppend)
	<-appenderDone
	if err != nil {
		t.Fatalf("TriggerSeal under load: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("TriggerSeal took %v under load", elapsed)
	}
}
