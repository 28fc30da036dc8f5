package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"loggrep/internal/archive"
	"loggrep/internal/blobstore"
	"loggrep/internal/core"
	"loggrep/internal/loggen"
	"loggrep/internal/query"
)

// hookBlob runs an optional hook before every read it serves.
type hookBlob struct {
	blobstore.BlobStore
	hook atomic.Pointer[func()]
}

func (b *hookBlob) Get(ctx context.Context, key string) ([]byte, error) {
	if h := b.hook.Load(); h != nil {
		(*h)()
	}
	return b.BlobStore.Get(ctx, key)
}

// evict drops one sealed segment from the resident cache, so the next
// query reloads it from storage with cold payload caches.
func evict(m *Manager, seq uint64) {
	c := m.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	for sg, e := range c.ents {
		if sg.seq == seq {
			c.bytes -= e.Value.(*cacheEnt).size
			c.lru.Remove(e)
			delete(c.ents, sg)
		}
	}
}

const (
	fanSegs        = 9
	fanQuarantined = 3 // overwritten on disk: quarantined at replay
	fanDamaged     = 6 // one byte flipped mid-file: a damaged block
	fanEvicted     = 8 // evicted before every query
)

// fanOutDir seals fanSegs segments of 600 lines, several archive blocks
// each, behind a 300-line raw tail, then damages two segments on disk.
// Every open of the directory replays to the same stream.
func fanOutDir(t *testing.T) (string, *hookBlob) {
	t.Helper()
	dir := t.TempDir()
	blob := &hookBlob{BlobStore: blobstore.NewLocal(dir)}
	cfg := fanOutConfig(dir, blob)
	m := mustOpen(t, cfg)
	sev := []string{"INFO", "WARN", "ERROR", "DEBUG"}
	line := 0
	batch := func(n int) {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = fmt.Sprintf("%s req id=%05d status=%d path=/api/v%d took=%dms", sev[line%4], line, 200+line%7, line%3, line%97)
			line++
		}
		appendLines(t, m, "acme", "app", lines...)
	}
	for s := 0; s < fanSegs; s++ {
		batch(600)
		if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
			t.Fatal(err)
		}
	}
	batch(300)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	app := dir + "/acme/app"
	if err := os.WriteFile(segPath(app, fanQuarantined), []byte("not an archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := os.ReadFile(segPath(app, fanDamaged))
	if err != nil {
		t.Fatal(err)
	}
	d[len(d)/3] ^= 0xFF
	if err := os.WriteFile(segPath(app, fanDamaged), d, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, blob
}

func fanOutConfig(dir string, blob *hookBlob) Config {
	cfg := testConfig(dir)
	cfg.sealInterval = time.Hour // the replayed raw tail stays raw
	cfg.archive = archive.DefaultOptions()
	cfg.archive.BlockBytes = 16 << 10
	cfg.Blobs = blobstore.Wrap(blob, blobstore.Policy{MaxAttempts: 1, BreakerFailures: -1})
	return cfg
}

type fanQuery struct {
	cmd       string
	countOnly bool
}

var fanQueries = []fanQuery{
	{cmd: "ERROR AND status=203"},
	{cmd: "status=201 OR path=/api/v2"},
	{cmd: "WARN NOT took=1*ms"},
	{cmd: "id=000* AND (INFO OR DEBUG)"},
	{cmd: "ERROR", countOnly: true},
	{cmd: "took=9*ms NOT status=200", countOnly: true},
}

// TestStreamSearchFanOutMatchesSerial: a stream query returns exactly the
// same answer whatever the worker count — lines, entries, matches, damage,
// partial flag and decompressions — over sealed segments with a
// quarantined one, a damaged block, an evicted one and a raw tail; a
// budget-cut fan-out returns a flagged subset; a cancelled query returns
// ctx's error and leaves no goroutine behind.
func TestStreamSearchFanOutMatchesSerial(t *testing.T) {
	dir, blob := fanOutDir(t)
	runAll := func(workers int) []*core.Result {
		m := mustOpen(t, fanOutConfig(dir, blob))
		defer m.Close()
		st := m.Lookup("acme/app")
		var out []*core.Result
		for _, q := range fanQueries {
			evict(m, fanEvicted)
			res, err := st.Search(context.Background(), q.cmd, core.SearchOpts{Workers: workers, CountOnly: q.countOnly})
			if err != nil {
				t.Fatalf("workers %d, %q: %v", workers, q.cmd, err)
			}
			out = append(out, res)
		}
		return out
	}
	serial := runAll(1)
	storage := 0
	for _, d := range serial[0].Damaged {
		if !errors.Is(d.Err, errQuarantined) {
			storage++
		}
	}
	if !serial[0].Partial || storage == 0 || len(serial[0].Damaged) < 2 {
		t.Fatalf("serial result: partial=%v damaged=%+v, want a quarantined segment and a damaged block", serial[0].Partial, serial[0].Damaged)
	}
	for i, res := range serial {
		if res.Matches == 0 || fanQueries[i].countOnly != (len(res.Lines) == 0) {
			t.Fatalf("%q: %d matches, %d lines: the query set must match in every segment kind", fanQueries[i].cmd, res.Matches, len(res.Lines))
		}
	}
	for _, workers := range []int{0, 2, 8} {
		for i, res := range runAll(workers) {
			want := serial[i]
			if !reflect.DeepEqual(res.Lines, want.Lines) || !reflect.DeepEqual(res.Entries, want.Entries) ||
				res.Matches != want.Matches || res.Partial != want.Partial ||
				res.PartialReason != want.PartialReason || res.Decompressions != want.Decompressions ||
				damageKey(res.Damaged) != damageKey(want.Damaged) {
				t.Fatalf("workers %d, %q: matches=%d partial=%v/%q decompressions=%d damaged=%s; serial: matches=%d partial=%v/%q decompressions=%d damaged=%s",
					workers, fanQueries[i].cmd, res.Matches, res.Partial, res.PartialReason, res.Decompressions, damageKey(res.Damaged),
					want.Matches, want.Partial, want.PartialReason, want.Decompressions, damageKey(want.Damaged))
			}
		}
	}

	m := mustOpen(t, fanOutConfig(dir, blob))
	defer m.Close()
	st := m.Lookup("acme/app")

	// A budget-cut fan-out: a flagged subset of the full answer.
	full := map[int]string{}
	for i, ln := range serial[0].Lines {
		full[ln] = serial[0].Entries[i]
	}
	meter := core.NewBudgetState(core.Budget{MaxDecompressions: 3})
	cut, err := st.Search(context.Background(), fanQueries[0].cmd, core.SearchOpts{Workers: 8, Budget: meter})
	if err != nil {
		t.Fatal(err)
	}
	if !cut.Partial || len(cut.Lines) >= len(serial[0].Lines) {
		t.Fatalf("budget-cut query: partial=%v %d of %d lines, want a flagged strict subset", cut.Partial, len(cut.Lines), len(serial[0].Lines))
	}
	for i, ln := range cut.Lines {
		if full[ln] != cut.Entries[i] {
			t.Fatalf("budget-cut query returned line %d %q, not in the full answer", ln, cut.Entries[i])
		}
	}
	// The same meter, already spent: no sealed segment starts, the raw
	// tail still answers, and the result says why it is partial.
	views := st.snapshot()
	tailBase := views[len(views)-1].base
	spent, err := st.Search(context.Background(), fanQueries[0].cmd, core.SearchOpts{Workers: 8, Budget: meter})
	if err != nil {
		t.Fatal(err)
	}
	if !spent.Partial || !strings.Contains(spent.PartialReason, "budget") || len(spent.Lines) == 0 || spent.Lines[0] < tailBase {
		t.Fatalf("query on a spent budget: partial=%v %q lines %v, want the raw tail's matches only (from line %d)",
			spent.Partial, spent.PartialReason, spent.Lines, tailBase)
	}

	// Cancellation, before the query and in the middle of it (the first
	// storage read, for the evicted segment, cancels).
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Search(ctx, "ERROR", core.SearchOpts{Workers: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err = %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	hook := func() { cancel() }
	blob.hook.Store(&hook)
	defer blob.hook.Store(nil)
	evict(m, fanEvicted)
	if _, err := st.Search(ctx, "ERROR", core.SearchOpts{Workers: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("query cancelled mid-flight: err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the cancelled queries, %d before", n, before)
	}
}

func damageKey(ds []core.BlockError) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "[%d %d+%d %v]", d.Block, d.FirstLine, d.NumLines, d.Err)
	}
	return b.String()
}

// TestGlobContainsLinear: a glob's cost is linear in the text however many
// stars it holds. a*a*a*b against a 4 KB delimiter-free token followed by
// " b" (every fragment occurs, the glob does not) must answer within 100
// ms through GlobContains, the raw tail of a stream query, and a sealed
// segment's verify step — a backtracking matcher takes hours.
func TestGlobContainsLinear(t *testing.T) {
	const pattern = "a*a*a*b"
	hit := "x aaab y"
	miss := strings.Repeat("a", 4096) + " b"
	within := func(name string, f func()) {
		t.Helper()
		done := make(chan struct{})
		t0 := time.Now()
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(100 * time.Millisecond):
			t.Fatalf("%s: %s did not answer within 100 ms", name, pattern)
		}
		t.Logf("%s: %v", name, time.Since(t0))
	}
	within("GlobContains", func() {
		if query.GlobContains(miss, pattern) || !query.GlobContains(hit, pattern) {
			t.Errorf("GlobContains(%q) wrong", pattern)
		}
	})

	m := mustOpen(t, testConfig(t.TempDir()))
	defer m.Close()
	search := func(name string) {
		st := m.Lookup("acme/app")
		within(name, func() {
			res, err := st.Search(context.Background(), pattern, core.SearchOpts{})
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.Entries) != 1 || res.Entries[0] != hit {
				t.Errorf("%s: entries %q, want just %q", name, res.Entries, hit)
			}
		})
	}
	appendLines(t, m, "acme", "app", hit, miss)
	search("raw tail")
	if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
		t.Fatal(err)
	}
	// A first query decompresses the capsules, so the timed one is the
	// filter's scans and the verify step.
	if _, err := m.Lookup("acme/app").Search(context.Background(), "a AND b", core.SearchOpts{}); err != nil {
		t.Fatal(err)
	}
	search("sealed segment")
}

// BenchmarkStreamSearchSealed times distinct "<severity> AND <id>"
// queries over six sealed 4 MB segments of mixed loggen types, after a
// thousand others — the settled reads of a daemon's stream. Run it at -cpu 1,2 to see the
// fan-out over segments.
func BenchmarkStreamSearchSealed(b *testing.B) {
	m, _, err := Open(testConfig(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	var types []loggen.LogType
	for _, name := range []string{"A", "F", "G", "I", "J", "S", "U"} {
		lt, _ := loggen.ByName(name)
		types = append(types, lt)
	}
	var qs []string
	seen := map[string]bool{}
	for seg := 0; seg < 6; seg++ {
		size := 0
		for k := 0; size < 4<<20; k++ {
			lines := types[k%len(types)].Lines(int64(seg*1000+k), 300)
			for _, l := range lines {
				size += len(l) + 1
				if sev, id := settledQuery(l); id != "" && !seen[id] && len(qs) < 4096 {
					seen[id] = true
					qs = append(qs, sev+" AND "+id)
				}
			}
			if err := m.Append("acme", "app", lines); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.TriggerSeal(context.Background(), "acme", "app"); err != nil {
			b.Fatal(err)
		}
	}
	st := m.Lookup("acme/app")
	search := func(q string) {
		res, err := st.Search(context.Background(), q, core.SearchOpts{})
		if err != nil || res.Matches == 0 {
			b.Fatalf("%q: %v, %d matches", q, err, res.Matches)
		}
	}
	// The first thousand queries settle the payload caches, as a daemon's
	// earlier reads have; the timed ones are distinct from them.
	warm, timed := qs[:1000], qs[1000:]
	for _, q := range warm {
		search(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(timed[i%len(timed)])
	}
}

// settledQuery picks a line's severity word and its longest word of at
// least 12 bytes holding a digit, past the two timestamp words.
func settledQuery(line string) (severity, id string) {
	words := strings.Split(line, " ")
	for _, w := range words {
		if severity == "" && (w == "ERROR" || w == "WARNING" || w == "INFO" || w == "DEBUG") {
			severity = w
		}
	}
	if severity == "" || len(words) < 3 {
		return "", ""
	}
	for _, w := range words[2:] {
		if len(w) >= 12 && len(w) > len(id) && strings.ContainsAny(w, "0123456789") && !strings.ContainsAny(w, `()"*`) {
			id = w
		}
	}
	return severity, id
}

// TestStreamFanOutPartialReason: a spent budget names a partial stream
// result's reason over storage damage — with the budget cut in the first
// sealed segment, before the quarantined and damaged ones, and in the last,
// after them — at one worker and at eight. Damage a serial query reached
// before the cut is still reported.
func TestStreamFanOutPartialReason(t *testing.T) {
	dir, blob := fanOutDir(t)
	search := func(workers int, b core.Budget) *core.Result {
		m := mustOpen(t, fanOutConfig(dir, blob))
		defer m.Close()
		res, err := m.Lookup("acme/app").Search(context.Background(), fanQueries[0].cmd,
			core.SearchOpts{Workers: workers, Budget: core.NewBudgetState(b)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := search(1, core.Budget{})
	if !full.Partial || full.PartialReason != "storage" || len(full.Damaged) < 2 {
		t.Fatalf("unbudgeted query: partial=%v %q damage %s, want storage", full.Partial, full.PartialReason, damageKey(full.Damaged))
	}
	for _, limit := range []int64{1, int64(full.Decompressions) - 1} {
		for _, workers := range []int{1, 8} {
			res := search(workers, core.Budget{MaxDecompressions: limit})
			if !res.Partial || !strings.Contains(res.PartialReason, "budget") {
				t.Fatalf("cap %d, workers %d: partial=%v %q, want the budget named", limit, workers, res.Partial, res.PartialReason)
			}
			if limit > 1 && workers == 1 && damageKey(res.Damaged) != damageKey(full.Damaged) {
				t.Fatalf("cap %d: damage %s, want %s", limit, damageKey(res.Damaged), damageKey(full.Damaged))
			}
		}
	}
}

// TestSearchWorkersOneStaysOnCaller: with Workers 1 an archive search and
// a stream search start no goroutine — every read happens on the caller.
// The count before is taken once it holds still, so that goroutines an
// earlier test left winding down are not counted; one that exits during
// the search can only lower the count, which is why it is an upper bound.
func TestSearchWorkersOneStaysOnCaller(t *testing.T) {
	var counts []int
	record := func() { counts = append(counts, runtime.NumGoroutine()) }
	settled := func() int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			time.Sleep(20 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				break
			}
			n = m
		}
		return n
	}
	check := func(what string, before int) {
		t.Helper()
		if len(counts) == 0 {
			t.Fatalf("%s: the read hook never ran", what)
		}
		for _, n := range counts {
			if n > before {
				t.Fatalf("%s: %d goroutines during the search, %d before", what, n, before)
			}
		}
		counts = nil
	}

	lt, _ := loggen.ByName("G")
	o := archive.DefaultOptions()
	o.BlockBytes = 32 << 10
	data, err := archive.Compress(lt.Block(3, 2000), o)
	if err != nil {
		t.Fatal(err)
	}
	a, err := archive.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	a.SetReadHook(func(context.Context) error { record(); return nil })
	before := settled()
	if _, err := a.Search(context.Background(), lt.Query, core.SearchOpts{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	check("archive", before)

	dir, blob := fanOutDir(t)
	m := mustOpen(t, fanOutConfig(dir, blob))
	defer m.Close()
	evict(m, fanEvicted)
	blob.hook.Store(&record)
	defer blob.hook.Store(nil)
	before = settled()
	if _, err := m.Lookup("acme/app").Search(context.Background(), "ERROR", core.SearchOpts{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	check("stream", before)
}
