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

// testConfig returns a config sealing only on demand (huge thresholds)
// so tests control the lifecycle explicitly.
func testConfig(dir string) Config {
	return Config{
		Dir:            dir,
		SealBytes:      1 << 30,
		SealAge:        time.Hour,
		MaxTenantBytes: 1 << 30,
		SealInterval:   10 * time.Millisecond,
	}
}

func mustOpen(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func appendLines(t *testing.T, m *Manager, tenant, stream string, lines ...string) {
	t.Helper()
	if err := m.Append(tenant, stream, lines); err != nil {
		t.Fatalf("append: %v", err)
	}
}

func queryAll(t *testing.T, st *Stream, cmd string) *core.Result {
	t.Helper()
	res, err := st.Search(context.Background(), cmd, core.SearchOpts{})
	if err != nil {
		t.Fatalf("query %q: %v", cmd, err)
	}
	return res
}

func TestAppendQueryRawTail(t *testing.T) {
	m := mustOpen(t, testConfig(t.TempDir()))
	defer m.Close()
	appendLines(t, m, "acme", "app", "alpha ERROR one", "beta ok", "gamma ERROR two")
	st := m.Lookup("acme/app")
	if st == nil {
		t.Fatal("stream not found")
	}
	res := queryAll(t, st, "ERROR")
	if len(res.Lines) != 2 || res.Lines[0] != 0 || res.Lines[1] != 2 {
		t.Fatalf("lines = %v, want [0 2]", res.Lines)
	}
	if res.Entries[1] != "gamma ERROR two" {
		t.Fatalf("entry = %q", res.Entries[1])
	}
	if got, _ := st.Entry(context.Background(), 1); got != "beta ok" {
		t.Fatalf("Entry(1) = %q", got)
	}
	if _, err := st.Entry(context.Background(), 3); err == nil {
		t.Fatal("Entry(3) should fail")
	}
}

func TestLookupDefaultTenant(t *testing.T) {
	m := mustOpen(t, testConfig(t.TempDir()))
	defer m.Close()
	appendLines(t, m, "default", "app", "hello")
	if m.Lookup("app") == nil {
		t.Fatal("bare name should resolve via default tenant")
	}
	if m.Lookup("default/app") == nil {
		t.Fatal("qualified name should resolve")
	}
	if m.Lookup("nope/app") != nil {
		t.Fatal("wrong tenant resolved")
	}
}

func TestSealAndQueryConsistency(t *testing.T) {
	m := mustOpen(t, testConfig(t.TempDir()))
	defer m.Close()
	var want []string
	for i := 0; i < 500; i++ {
		want = append(want, fmt.Sprintf("req id=%04d status=%d path=/api/v%d", i, 200+i%5, i%3))
	}
	appendLines(t, m, "acme", "app", want[:200]...)
	if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
		t.Fatalf("seal: %v", err)
	}
	appendLines(t, m, "acme", "app", want[200:350]...)
	if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
		t.Fatalf("seal 2: %v", err)
	}
	appendLines(t, m, "acme", "app", want[350:]...) // raw tail
	st := m.Lookup("acme/app")

	// Sealed segments + raw tail must answer as one stream with stable
	// global line numbers.
	res := queryAll(t, st, "req")
	if len(res.Lines) != len(want) {
		t.Fatalf("matches = %d, want %d", len(res.Lines), len(want))
	}
	for i, ln := range res.Lines {
		if ln != i || res.Entries[i] != want[i] {
			t.Fatalf("line %d: got (%d, %q), want (%d, %q)", i, ln, res.Entries[i], i, want[i])
		}
	}
	// Selective query spans the seal boundary.
	res = queryAll(t, st, "status=201")
	naive := 0
	for _, l := range want {
		if strings.Contains(l, "status=201") {
			naive++
		}
	}
	if len(res.Lines) != naive {
		t.Fatalf("selective matches = %d, want %d", len(res.Lines), naive)
	}

	// The sealed segments are real v2 archives with index sections and
	// clean deep verification.
	dir := filepath.Join(m.cfg.Dir, "acme", "app")
	for _, seq := range []uint64{1, 2} {
		data, err := os.ReadFile(segPath(dir, seq))
		if err != nil {
			t.Fatalf("sealed segment %d missing: %v", seq, err)
		}
		a, err := archive.Open(data)
		if err != nil {
			t.Fatalf("open sealed %d: %v", seq, err)
		}
		if bad := a.Verify(true); len(bad) != 0 {
			t.Fatalf("sealed %d fails deep verify: %v", seq, bad)
		}
		if a.IndexStats().TotalBytes() == 0 {
			t.Errorf("sealed %d has no block-skipping index sections", seq)
		}
		if _, err := os.Stat(walPath(dir, seq)); !os.IsNotExist(err) {
			t.Fatalf("WAL %d survived its seal", seq)
		}
	}
}

func TestSealBySizeThreshold(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.SealBytes = 1024
	m := mustOpen(t, cfg)
	defer m.Close()
	line := strings.Repeat("x", 99) // 100 bytes with newline
	for i := 0; i < 30; i++ {
		appendLines(t, m, "t", "s", line)
	}
	// ~3000 bytes at a 1KB threshold: at least two segments rolled; the
	// background sealer should compress them shortly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info := m.Snapshot()[0]
		if info.SealedSegs >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sealer never caught up: %+v", info)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := m.Lookup("t/s")
	if res := queryAll(t, st, "xxx"); len(res.Lines) != 30 {
		t.Fatalf("matches = %d, want 30", len(res.Lines))
	}
}

func TestSealByAge(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.SealAge = 50 * time.Millisecond
	m := mustOpen(t, cfg)
	defer m.Close()
	appendLines(t, m, "t", "s", "one lonely line")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if info := m.Snapshot()[0]; info.SealedSegs == 1 && info.RawSegs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("age-based seal never happened: %+v", m.Snapshot()[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if res := queryAll(t, m.Lookup("t/s"), "lonely"); len(res.Lines) != 1 {
		t.Fatalf("line lost by age seal")
	}
}

func TestBackpressure(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.MaxTenantBytes = 64
	m := mustOpen(t, cfg)
	defer m.Close()
	if err := m.Append("t", "s", []string{strings.Repeat("a", 40)}); err != nil {
		t.Fatalf("first append: %v", err)
	}
	err := m.Append("t", "s", []string{strings.Repeat("b", 40)})
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("err = %v, want ErrBackpressure", err)
	}
	// The refused batch must not have been partially accepted.
	if got := m.Lookup("t/s").NumLines(); got != 1 {
		t.Fatalf("lines = %d, want 1", got)
	}
	// Another tenant is unaffected.
	if err := m.Append("other", "s", []string{strings.Repeat("c", 40)}); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
	// Sealing drains the budget and unblocks the tenant.
	if err := m.TriggerSeal(context.Background(), "t", "s"); err != nil {
		t.Fatal(err)
	}
	if err := m.Append("t", "s", []string{strings.Repeat("b", 40)}); err != nil {
		t.Fatalf("append after seal: %v", err)
	}
}

func TestBadInput(t *testing.T) {
	m := mustOpen(t, testConfig(t.TempDir()))
	defer m.Close()
	for _, tc := range []struct {
		tenant, stream string
		lines          []string
	}{
		{"bad/name", "s", []string{"x"}},
		{"", "s", []string{"x"}},
		{"t", "..", []string{"x"}},
		{"t", ".hidden", []string{"x"}},
		{"t", "s", []string{"embedded\nnewline"}},
		{"t", "s", []string{strings.Repeat("x", MaxLineBytes+1)}},
	} {
		if err := m.Append(tc.tenant, tc.stream, tc.lines); !errors.Is(err, ErrBadInput) {
			t.Errorf("Append(%q,%q): err = %v, want ErrBadInput", tc.tenant, tc.stream, err)
		}
	}
}

func TestReplayAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, testConfig(dir))
	appendLines(t, m, "acme", "app", "first", "second")
	if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
		t.Fatal(err)
	}
	appendLines(t, m, "acme", "app", "third tail")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Append("acme", "app", []string{"x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}

	m2, stats, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if stats.Streams != 1 || stats.SealedSegs != 1 || stats.RawSegs != 1 || stats.RawLines != 1 {
		t.Fatalf("replay stats = %+v", stats)
	}
	st := m2.Lookup("acme/app")
	if st.NumLines() != 3 {
		t.Fatalf("lines after replay = %d, want 3", st.NumLines())
	}
	res := queryAll(t, st, "third")
	if len(res.Lines) != 1 || res.Lines[0] != 2 {
		t.Fatalf("tail line after replay = %v", res.Lines)
	}
	// New appends continue the sequence without clobbering old segments.
	appendLines(t, m2, "acme", "app", "fourth")
	if res := queryAll(t, st, "fourth"); len(res.Lines) != 1 || res.Lines[0] != 3 {
		t.Fatalf("post-replay append = %v", res.Lines)
	}
}

func TestWALDecodeTornRecords(t *testing.T) {
	payload := []byte("line one\nline two\n")
	full := append([]byte(walMagic), encodeWALRecord(payload)...)

	lines, bytes := decodeWAL(full)
	if len(lines) != 2 || bytes != int64(len(payload)) {
		t.Fatalf("decode = %v (%d bytes)", lines, bytes)
	}
	// A torn trailing record (any truncation inside it) must drop whole.
	torn := append(append([]byte{}, full...), encodeWALRecord([]byte("unacked\n"))[:5]...)
	if lines, _ := decodeWAL(torn); len(lines) != 2 {
		t.Fatalf("torn decode kept %d lines, want 2", len(lines))
	}
	// A bit-flip inside the second record's payload fails its CRC.
	two := append(append([]byte{}, full...), encodeWALRecord([]byte("unacked\n"))...)
	two[len(two)-3] ^= 0x40
	if lines, _ := decodeWAL(two); len(lines) != 2 {
		t.Fatalf("corrupt decode kept %d lines, want 2", len(lines))
	}
	// Wrong magic yields nothing.
	if lines, _ := decodeWAL([]byte("NOTAWAL\nxxxx")); lines != nil {
		t.Fatalf("bad magic decoded %v", lines)
	}
}

func TestParseBatchPlainAndNDJSON(t *testing.T) {
	b, err := ParseBatch("text/plain", []byte("one\ntwo\n\nthree"), "app")
	if err != nil {
		t.Fatal(err)
	}
	if b.Lines != 3 || len(b.Groups["app"]) != 3 || b.Groups["app"][2] != "three" {
		t.Fatalf("plain batch = %+v", b)
	}

	nd := `{"line":"hello world"}
{"line":"routed","stream":"other"}
{"line":"back home"}`
	b, err = ParseBatch("application/x-ndjson; charset=utf-8", []byte(nd), "app")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Groups["app"]; len(got) != 2 || got[0] != "hello world" || got[1] != "back home" {
		t.Fatalf("ndjson default group = %v", got)
	}
	if got := b.Groups["other"]; len(got) != 1 || got[0] != "routed" {
		t.Fatalf("ndjson routed group = %v", got)
	}
	if len(b.Streams) != 2 || b.Streams[0] != "app" || b.Streams[1] != "other" {
		t.Fatalf("stream order = %v", b.Streams)
	}

	if _, err := ParseBatch("application/x-ndjson", []byte(`{"nope":1}`), "app"); !errors.Is(err, ErrBadInput) {
		t.Fatalf("missing line field: %v", err)
	}
	if _, err := ParseBatch("application/x-ndjson", []byte(`not json`), "app"); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad json: %v", err)
	}
}

// TestQueryBudgetSpansSegments: the work budget bounds the whole stream
// query, not each sealed segment. Four sealed segments, a decompression
// cap one segment alone exhausts: the result must be a flagged partial,
// every line a true match, and the work done — read off the query's meter,
// which the engine charges as it works — must stay within the cap plus one
// checkpoint's slack instead of growing with the segment count.
func TestQueryBudgetSpansSegments(t *testing.T) {
	m := mustOpen(t, testConfig(t.TempDir()))
	defer m.Close()
	const segs = 4
	for sgi := 0; sgi < segs; sgi++ {
		lines := make([]string, 400)
		for i := range lines {
			lines[i] = fmt.Sprintf("req id=%04d seg=%d status=%d path=/api/v%d", i, sgi, 200+i%5, i%3)
		}
		appendLines(t, m, "acme", "app", lines...)
		if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
			t.Fatal(err)
		}
	}
	if info := m.Snapshot()[0]; info.SealedSegs != segs {
		t.Fatalf("sealed segments = %d, want %d", info.SealedSegs, segs)
	}
	st := m.Lookup("acme/app")

	run := func(b core.Budget) (*core.Result, int64) {
		meter := core.NewBudgetState(b)
		res, err := st.Search(context.Background(), "status=203", core.SearchOpts{Workers: 1, Budget: meter})
		if err != nil {
			t.Fatal(err)
		}
		return res, meter.Decompressions()
	}
	// Budgeted run first, while every payload is still cold.
	budget := core.Budget{MaxDecompressions: 4}
	res, work := run(budget)
	if !res.Partial || res.PartialReason == "" {
		t.Fatalf("budgeted query not flagged partial: partial=%v reason=%q matches=%d",
			res.Partial, res.PartialReason, len(res.Lines))
	}
	// The cap is checked before each payload fetch and per verified
	// candidate, so the overshoot is bounded by what one step between two
	// checks decompresses — not by the segment count.
	const slack = 2
	if work > budget.MaxDecompressions+slack {
		t.Fatalf("decompressions = %d over %d sealed segments, want <= cap %d + slack %d",
			work, segs, budget.MaxDecompressions, slack)
	}
	for i, e := range res.Entries {
		// A line's text is a function of its number; only status=203
		// lines equal this rendering.
		ln := res.Lines[i]
		if e != fmt.Sprintf("req id=%04d seg=%d status=203 path=/api/v%d", ln%400, ln/400, ln%400%3) {
			t.Fatalf("line %d %q is not a true match", res.Lines[i], e)
		}
	}
	full, _ := run(core.Budget{})
	if full.Partial || len(full.Lines) != segs*80 {
		t.Fatalf("unbudgeted query: partial=%v matches=%d, want %d", full.Partial, len(full.Lines), segs*80)
	}
}

func TestSearchCancel(t *testing.T) {
	m := mustOpen(t, testConfig(t.TempDir()))
	defer m.Close()
	lines := make([]string, 5000)
	for i := range lines {
		lines[i] = fmt.Sprintf("filler line %d", i)
	}
	appendLines(t, m, "t", "s", lines...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Lookup("t/s").Search(ctx, "filler", core.SearchOpts{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
