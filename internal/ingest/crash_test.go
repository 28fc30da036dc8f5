package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"loggrep/internal/archive"
	"loggrep/internal/core"
)

// errBoom is the injected seal failure standing in for a kill -9.
var errBoom = errors.New("injected crash")

// TestCrashDuringSeal kills the seal protocol at each of its stages, then
// replays the directory with a fresh Manager and proves the two crash
// invariants: zero lost acknowledged lines, and no duplicate sealed
// blocks — every line appears exactly once, in order.
func TestCrashDuringSeal(t *testing.T) {
	for _, stage := range []string{"compressed", "published", "cleaned"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			cfg := testConfig(dir)
			// Every seal attempt dies at the target stage, exactly as if
			// the process were killed there.
			cfg.sealHook = func(s string) error {
				if s == stage {
					return errBoom
				}
				return nil
			}
			m := mustOpen(t, cfg)

			var acked []string
			ack := func(lines ...string) {
				if err := m.Append("acme", "app", lines); err != nil {
					t.Fatalf("append: %v", err)
				}
				acked = append(acked, lines...)
			}
			for i := 0; i < 100; i++ {
				ack(fmt.Sprintf("batch1 line=%03d status=%d", i, 200+i%7))
			}
			// Attempt a seal; it dies mid-protocol. The stream must keep
			// answering from the raw tail regardless.
			if err := m.TriggerSeal(context.Background(), "acme", "app"); err == nil {
				t.Fatal("seal should have crashed")
			}
			// More acknowledged lines after the failed seal: the next
			// segment keeps its own sequence number.
			for i := 0; i < 50; i++ {
				ack(fmt.Sprintf("batch2 line=%03d", i))
			}
			m.abandon() // hard stop: no close-time sync, no sealing

			// A new process replays the same directory with no failpoints.
			m2, _, err := Open(testConfig(dir))
			if err != nil {
				t.Fatalf("replay after crash at %q: %v", stage, err)
			}
			defer m2.Close()
			verifyExactlyOnce(t, m2, acked)

			// Let the recovered process finish the interrupted seal, then
			// re-check: sealing must not duplicate or drop anything either.
			if err := m2.TriggerSeal(context.Background(), "acme", "app"); err != nil {
				t.Fatalf("seal after replay: %v", err)
			}
			verifyExactlyOnce(t, m2, acked)

			// On-disk invariant: per sequence number, the WAL and the
			// sealed archive never both survive replay + reseal, and each
			// sealed archive passes deep verification.
			sdir := filepath.Join(dir, "acme", "app")
			entries, err := os.ReadDir(sdir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".wal") {
					t.Errorf("WAL %s survived a completed seal", e.Name())
				}
				if strings.HasPrefix(e.Name(), ".tmp-") {
					t.Errorf("temp file %s survived replay", e.Name())
				}
				if strings.HasSuffix(e.Name(), ".lgrep") {
					data, err := os.ReadFile(filepath.Join(sdir, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					a, err := archive.Open(data)
					if err != nil {
						t.Fatalf("open %s: %v", e.Name(), err)
					}
					if bad := a.Verify(true); len(bad) != 0 {
						t.Errorf("%s fails deep verify: %v", e.Name(), bad)
					}
				}
			}
		})
	}
}

// TestCrashLeavesTornTail simulates a kill mid-WAL-write: the acknowledged
// records survive replay, the torn (never-acknowledged) record vanishes.
func TestCrashLeavesTornTail(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, testConfig(dir))
	appendLines(t, m, "t", "s", "acked one", "acked two")
	m.abandon()

	// The process died while appending a third record: only a prefix of
	// the frame reached the disk.
	wal := walPath(filepath.Join(dir, "t", "s"), 1)
	torn := encodeWALRecord([]byte("never acked\n"))[:7]
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, stats, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if stats.RawLines != 2 {
		t.Fatalf("replayed %d lines, want 2", stats.RawLines)
	}
	verifyExactlyOnce(t, m2, []string{"acked one", "acked two"})

	// The stream accepts new appends after recovering from the torn tail.
	appendLines(t, m2, "t", "s", "post-crash line")
	verifyExactlyOnce(t, m2, []string{"acked one", "acked two", "post-crash line"})
}

// TestReplayRemovesAbandonedTemp proves an AtomicWriteFileSync interrupted
// before its rename (crash between temp-write and rename) is garbage
// collected and never mistaken for data.
func TestReplayRemovesAbandonedTemp(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, testConfig(dir))
	appendLines(t, m, "t", "s", "real line")
	m.abandon()

	sdir := filepath.Join(dir, "t", "s")
	if err := os.WriteFile(filepath.Join(sdir, ".tmp-12345"), []byte("half-written archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, stats, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if stats.TempRemoved != 1 {
		t.Fatalf("TempRemoved = %d, want 1", stats.TempRemoved)
	}
	if _, err := os.Stat(filepath.Join(sdir, ".tmp-12345")); !os.IsNotExist(err) {
		t.Fatal("temp file survived replay")
	}
	verifyExactlyOnce(t, m2, []string{"real line"})
}

// TestRepeatedCrashReplayCycles stresses the protocol: several rounds of
// append → crashed seal → abandon → replay must converge with every
// acknowledged line intact and exactly once.
func TestRepeatedCrashReplayCycles(t *testing.T) {
	dir := t.TempDir()
	var acked []string
	stages := []string{"published", "compressed", "cleaned", "published"}
	for round, stage := range stages {
		cfg := testConfig(dir)
		failing := true
		cfg.sealHook = func(s string) error {
			if failing && s == stage {
				return errBoom
			}
			return nil
		}
		m, _, err := Open(cfg)
		if err != nil {
			t.Fatalf("round %d open: %v", round, err)
		}
		lines := make([]string, 20)
		for i := range lines {
			lines[i] = fmt.Sprintf("round=%d line=%02d payload=%x", round, i, round*1000+i)
		}
		if err := m.Append("acme", "app", lines); err != nil {
			t.Fatalf("round %d append: %v", round, err)
		}
		acked = append(acked, lines...)
		if err := m.TriggerSeal(context.Background(), "acme", "app"); err == nil {
			t.Fatalf("round %d: seal should have crashed", round)
		}
		verifyExactlyOnce(t, m, acked) // pre-crash view already consistent
		m.abandon()
	}
	m, _, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	verifyExactlyOnce(t, m, acked)
	if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, m, acked)
}

// verifyExactlyOnce asserts the stream holds exactly the acknowledged
// lines, in acknowledgement order, each exactly once — the two crash-
// safety invariants in one check. It matches everything via a query that
// every line satisfies (empty pattern via NOT of an absent token).
func verifyExactlyOnce(t *testing.T, m *Manager, acked []string) {
	t.Helper()
	var st *Stream
	for _, info := range m.Snapshot() {
		st = m.Lookup(info.Tenant + "/" + info.Stream)
	}
	if st == nil {
		t.Fatal("no stream after replay")
	}
	if got := st.NumLines(); got != len(acked) {
		t.Fatalf("NumLines = %d, want %d (lost or duplicated lines)", got, len(acked))
	}
	res, err := st.Search(context.Background(), "NOT no-such-token-xyzzy", core.SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != len(acked) {
		t.Fatalf("query returned %d lines, want %d", len(res.Entries), len(acked))
	}
	for i, want := range acked {
		if res.Lines[i] != i {
			t.Fatalf("line %d numbered %d", i, res.Lines[i])
		}
		if res.Entries[i] != want {
			t.Fatalf("line %d = %q, want %q", i, res.Entries[i], want)
		}
	}
	if len(res.Damaged) != 0 || res.Partial {
		t.Fatalf("damaged=%v partial=%v", res.Damaged, res.Partial)
	}
	// Sanity: sleep a moment for the background sealer and re-count, so a
	// racing seal cannot silently change the answer.
	time.Sleep(20 * time.Millisecond)
	if got := st.NumLines(); got != len(acked) {
		t.Fatalf("NumLines after settle = %d, want %d", got, len(acked))
	}
}
