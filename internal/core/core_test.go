package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"loggrep/internal/capsule"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
	"loggrep/internal/obsv"
	"loggrep/internal/query"
)

// ---- helpers ----------------------------------------------------------

func makeBlock(lines ...string) []byte {
	return []byte(strings.Join(lines, "\n") + "\n")
}

// naiveQuery is the oracle: evaluate a query command over raw lines with
// exact phrase semantics.
func naiveQuery(t *testing.T, lines []string, command string) []int {
	t.Helper()
	expr, err := query.Parse(command)
	if err != nil {
		t.Fatalf("oracle parse %q: %v", command, err)
	}
	var match func(e query.Expr, line string) bool
	match = func(e query.Expr, line string) bool {
		switch x := e.(type) {
		case *query.And:
			return match(x.L, line) && match(x.R, line)
		case *query.Or:
			return match(x.L, line) || match(x.R, line)
		case *query.Not:
			return !match(x.X, line)
		case *query.Search:
			return x.MatchEntry(line)
		}
		return false
	}
	var out []int
	for i, l := range lines {
		if match(expr, l) {
			out = append(out, i)
		}
	}
	return out
}

// searchTraced runs a command under a fresh trace.
func searchTraced(st *Store, command string) (*Result, *obsv.Trace, error) {
	tr := obsv.NewTrace("query")
	res, err := st.Search(context.Background(), command, SearchOpts{Trace: tr})
	return res, tr, err
}

func mustOpen(t *testing.T, block []byte, opts Options) (*Store, []string) {
	t.Helper()
	data := Compress(block, opts)
	st, err := Open(data, QueryOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st, logparse.SplitLines(block)
}

func checkQuery(t *testing.T, st *Store, lines []string, command string) {
	t.Helper()
	res, err := st.Search(context.Background(), command, SearchOpts{})
	if err != nil {
		t.Fatalf("Query(%q): %v", command, err)
	}
	want := naiveQuery(t, lines, command)
	if len(res.Lines) != len(want) {
		t.Fatalf("Query(%q) = lines %v, want %v", command, res.Lines, want)
	}
	for i := range want {
		if res.Lines[i] != want[i] {
			t.Fatalf("Query(%q) = lines %v, want %v", command, res.Lines, want)
		}
		if res.Entries[i] != lines[want[i]] {
			t.Fatalf("Query(%q) entry %d = %q, want %q", command, i, res.Entries[i], lines[want[i]])
		}
	}
}

// genBlock produces a paper-flavoured synthetic block: timestamps, block
// ids with a fixed prefix, file paths under a common root, IPs in one
// subnet, error-code enums, plus occasional unstructured lines.
func genBlock(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	lines := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ts := fmt.Sprintf("2021-01-%02d %02d:%02d:%02d.%03d", rng.Intn(28)+1, rng.Intn(24), rng.Intn(60), rng.Intn(60), rng.Intn(1000))
		switch rng.Intn(6) {
		case 0:
			lines = append(lines, fmt.Sprintf("%s INFO write to file:/root/usr/admin/%04x.log size=%d", ts, rng.Intn(65536), rng.Intn(4096)))
		case 1:
			lines = append(lines, fmt.Sprintf("%s ERROR read blk_%d from 11.187.%d.%d state:%s", ts, 1e8+rng.Int63n(1e8), rng.Intn(256), rng.Intn(256), []string{"SUC", "ERR#404", "ERR#503"}[rng.Intn(3)]))
		case 2:
			lines = append(lines, fmt.Sprintf("%s WARN worker-%d queue depth %d", ts, rng.Intn(8), rng.Intn(100)))
		case 3:
			lines = append(lines, fmt.Sprintf("%s INFO request T%06d done in %dms", ts, rng.Intn(1000000), rng.Intn(500)))
		case 4:
			lines = append(lines, fmt.Sprintf("%s ERROR state: %s#16%02d", ts, []string{"SUC", "ERR"}[rng.Intn(2)], rng.Intn(100)))
		default:
			lines = append(lines, fmt.Sprintf("%s DEBUG cache hit ratio 0.%02d shard %d", ts, rng.Intn(100), rng.Intn(16)))
		}
	}
	// A couple of unstructured lines.
	lines = append(lines, "!!! PANIC unstructured trace line !!!")
	lines = append(lines, "another weird line with no structure at all ###")
	return lines
}

var testQueries = []string{
	"ERROR",
	"ERROR AND state:ERR#404",
	"ERROR AND blk_1* NOT state:SUC",
	"INFO AND file:/root/usr/admin/*.log",
	"worker-3 OR worker-5",
	"request AND done",
	"NOT INFO",
	"ERROR AND 11.187.*.*",
	"PANIC",
	"cache AND shard 1",
	"state: AND SUC#16",
	"nosuchkeywordanywhere",
	"ERROR OR WARN AND queue",
	"T0* AND done",
}

// ---- tests ------------------------------------------------------------

func TestCompressReconstructPaperExample(t *testing.T) {
	block := makeBlock(
		"T134 bk.FF.13 read",
		"T169 state: SUC#1604",
		"T179 bk.C5.15 read",
		"T181 state: ERR#1623",
	)
	st, lines := mustOpen(t, block, DefaultOptions())
	got, err := st.ReconstructAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Fatalf("line %d: %q != %q", i, got[i], lines[i])
		}
	}
}

func TestRoundTripAllModes(t *testing.T) {
	lines := genBlock(7, 400)
	block := makeBlock(lines...)
	modes := map[string]Options{
		"full":       DefaultOptions(),
		"sp":         {Parse: logparse.DefaultOptions(), StaticOnly: true},
		"noReal":     {Parse: logparse.DefaultOptions(), DisableReal: true},
		"noNominal":  {Parse: logparse.DefaultOptions(), DisableNominal: true},
		"noStamps":   {Parse: logparse.DefaultOptions(), DisableStamps: true},
		"noPadding":  {Parse: logparse.DefaultOptions(), DisablePadding: true},
		"everything": {Parse: logparse.DefaultOptions(), StaticOnly: true, DisableStamps: true, DisablePadding: true},
	}
	for name, opts := range modes {
		t.Run(name, func(t *testing.T) {
			st, want := mustOpen(t, block, opts)
			got, err := st.ReconstructAll()
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("line %d: %q != %q", i, got[i], want[i])
				}
			}
		})
	}
}

func TestQueryEquivalenceAllModes(t *testing.T) {
	lines := genBlock(42, 500)
	block := makeBlock(lines...)
	modes := map[string]Options{
		"full":      DefaultOptions(),
		"sp":        {Parse: logparse.DefaultOptions(), StaticOnly: true},
		"noReal":    {Parse: logparse.DefaultOptions(), DisableReal: true},
		"noNominal": {Parse: logparse.DefaultOptions(), DisableNominal: true},
		"noStamps":  {Parse: logparse.DefaultOptions(), DisableStamps: true},
		"noPadding": {Parse: logparse.DefaultOptions(), DisablePadding: true},
	}
	for name, opts := range modes {
		t.Run(name, func(t *testing.T) {
			st, _ := mustOpen(t, block, opts)
			for _, q := range testQueries {
				checkQuery(t, st, lines, q)
			}
		})
	}
}

func TestQueryEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		lines := genBlock(int64(trial)*31+5, 200)
		block := makeBlock(lines...)
		st, _ := mustOpen(t, block, DefaultOptions())
		// Random keyword queries drawn from the data itself.
		for q := 0; q < 15; q++ {
			src := lines[rng.Intn(len(lines))]
			toks := strings.Fields(src)
			kw := toks[rng.Intn(len(toks))]
			// Random substring of a random token.
			if len(kw) > 3 && rng.Intn(2) == 0 {
				a := rng.Intn(len(kw) - 2)
				b := a + 2 + rng.Intn(len(kw)-a-2)
				kw = kw[a:b]
			}
			if strings.ContainsAny(kw, "()") || kw == "" {
				continue
			}
			cmd := kw
			switch rng.Intn(3) {
			case 1:
				other := strings.Fields(lines[rng.Intn(len(lines))])
				cmd = kw + " AND " + other[rng.Intn(len(other))]
			case 2:
				other := strings.Fields(lines[rng.Intn(len(lines))])
				cmd = kw + " NOT " + other[rng.Intn(len(other))]
			}
			if strings.ContainsAny(cmd, "()") {
				continue
			}
			checkQuery(t, st, lines, cmd)
		}
	}
}

func TestQueryCache(t *testing.T) {
	lines := genBlock(3, 300)
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
	r1, err := st.Search(context.Background(), "ERROR AND state:ERR#404", SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := st.Search(context.Background(), "ERROR AND state:ERR#404", SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Decompressions != 0 {
		t.Fatalf("cached query decompressed %d capsules", r2.Decompressions)
	}
	if len(r1.Lines) != len(r2.Lines) {
		t.Fatal("cache returned different result")
	}

	// With the cache disabled, re-execution touches capsules again (after
	// counters reset).
	data := Compress(makeBlock(lines...), DefaultOptions())
	st2, err := Open(data, QueryOptions{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	st2.Search(context.Background(), "ERROR AND state:ERR#404", SearchOpts{})
	st2.ResetCounters()
	r4, err := st2.Search(context.Background(), "ERROR AND state:ERR#404", SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Decompressions == 0 {
		t.Fatal("uncached query did not touch capsules")
	}
}

func TestStampFilteringSkipsCapsules(t *testing.T) {
	// Build a block whose variables are digits and hex only; a query for
	// a lowercase-letter keyword must not decompress sub-variable capsules.
	var lines []string
	for i := 0; i < 500; i++ {
		lines = append(lines, fmt.Sprintf("T%06d bk.%02X.%d read", i, i%256, i%20))
	}
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
	res, err := st.Search(context.Background(), "zzz*qq", SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) != 0 {
		t.Fatal("impossible keyword matched")
	}
	if st.Decompressions() != 0 {
		t.Fatalf("impossible keyword decompressed %d capsules", st.Decompressions())
	}
}

func TestTemplateHitAvoidsCapsules(t *testing.T) {
	// A keyword that is entirely static text must match all lines of the
	// group without touching value capsules... but verification
	// reconstructs matched rows, so instead check a NON-matching static
	// keyword costs nothing.
	var lines []string
	for i := 0; i < 300; i++ {
		lines = append(lines, fmt.Sprintf("alpha beta event %d", i))
	}
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
	res, err := st.Search(context.Background(), "gamma", SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) != 0 || st.Decompressions() != 0 {
		t.Fatalf("static miss cost %d decompressions", st.Decompressions())
	}
}

func TestQueryParseError(t *testing.T) {
	st, _ := mustOpen(t, makeBlock("a b c"), DefaultOptions())
	if _, err := st.Search(context.Background(), "AND AND", SearchOpts{}); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := st.Search(context.Background(), "", SearchOpts{}); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestEmptyBlock(t *testing.T) {
	st, err := Open(Compress(nil, DefaultOptions()), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Search(context.Background(), "anything", SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) != 0 {
		t.Fatal("empty block matched")
	}
}

func TestSingleLineBlock(t *testing.T) {
	st, lines := mustOpen(t, []byte("only one line with id 42\n"), DefaultOptions())
	checkQuery(t, st, lines, "id 42")
	checkQuery(t, st, lines, "NOT id")
}

func TestWildcardQueries(t *testing.T) {
	lines := []string{
		"dst:11.8.42 ok",
		"dst:11.9.42 ok",
		"dst:11.8.7 fail",
		"src:11.8.42 ok",
	}
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
	for _, q := range []string{"dst:11.8.*", "dst:11.*.42", "*.8.42", "dst:11.8.* AND ok"} {
		checkQuery(t, st, lines, q)
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	lines := genBlock(5, 3000)
	block := makeBlock(lines...)
	data := Compress(block, DefaultOptions())
	ratio := float64(len(block)) / float64(len(data))
	t.Logf("raw=%d compressed=%d ratio=%.2f", len(block), len(data), ratio)
	if ratio < 5 {
		t.Errorf("compression ratio %.2f is implausibly low for structured logs", ratio)
	}
}

func TestCorruptBoxRejected(t *testing.T) {
	data := Compress(makeBlock(genBlock(1, 100)...), DefaultOptions())
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 120; trial++ {
		mut := append([]byte(nil), data...)
		mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corrupt box: %v", r)
				}
			}()
			st, err := Open(mut, QueryOptions{})
			if err != nil {
				return
			}
			// Even if the box opens, queries must not panic.
			st.Search(context.Background(), "ERROR AND state:ERR#404", SearchOpts{})
			st.ReconstructAll()
		}()
	}
}

// A dictionary index outside the dictionary — a forged index capsule can
// hold any digits, or a minus sign — is corruption, not a panic.
func TestDictValueRejectsBadIndex(t *testing.T) {
	lt, _ := loggen.ByName("I")
	st, err := Open(Compress(lt.Block(1, 500), DefaultOptions()), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for gi := range st.box.Meta.Groups {
		for vi := range st.box.Meta.Groups[gi].Vars {
			vm := &st.box.Meta.Groups[gi].Vars[vi]
			if vm.Kind != capsule.NominalVar {
				continue
			}
			for _, idx := range []int{-1, st.box.Meta.Capsules[vm.DictCapID].Rows} {
				if _, err := st.dictValue(vm, idx); !errors.Is(err, capsule.ErrCorrupt) {
					t.Fatalf("dictValue(%d) = %v, want ErrCorrupt", idx, err)
				}
			}
			return
		}
	}
	t.Fatal("type I has no nominal variable")
}

func TestCountMatchesQuery(t *testing.T) {
	lines := genBlock(21, 400)
	st, _ := mustOpen(t, makeBlock(lines...), DefaultOptions())
	for _, cmd := range []string{
		"ERROR",
		"ERROR AND blk_1",
		"NOT INFO",
		"worker-3 OR worker-5",
		"ERROR NOT state:SUC",
		// non-exact leaves fall back to the verifying path:
		"blk_1* AND ERROR",
		"request done",
	} {
		// Count first: afterwards the Query Cache would answer it.
		cnt, err := st.Search(context.Background(), cmd, SearchOpts{CountOnly: true})
		if err != nil {
			t.Fatalf("Count(%q): %v", cmd, err)
		}
		res, tr, err := searchTraced(st, cmd)
		if err != nil {
			t.Fatalf("Query(%q): %v", cmd, err)
		}
		if cnt.Matches != len(res.Lines) || cnt.Lines != nil || cnt.Entries != nil {
			t.Fatalf("Count(%q) = %d (lines %v), Query matched %d", cmd, cnt.Matches, cnt.Lines, len(res.Lines))
		}
		// A verifying count reconstructed the whole answer on its way and
		// leaves it in the Query Cache; an exact one had no lines to leave.
		expr, _ := query.Parse(cmd)
		if hit := strings.Contains(tr.Outline(), "cache_hit=1"); hit == allExactLeaves(expr) {
			t.Errorf("Query(%q) after its count: cache hit = %v, exact count = %v", cmd, hit, !hit)
		}
		if want, _, _ := RawQuery(makeBlock(lines...), cmd); fmt.Sprint(res.Lines) != fmt.Sprint(want) {
			t.Errorf("Query(%q) after its count = lines %v, raw grep %v", cmd, res.Lines, want)
		}
	}
}

func TestRawQueryMatchesCompressedQuery(t *testing.T) {
	lines := genBlock(22, 300)
	block := makeBlock(lines...)
	st, _ := mustOpen(t, block, DefaultOptions())
	for _, cmd := range testQueries {
		rawLines, rawEntries, err := RawQuery(block, cmd)
		if err != nil {
			t.Fatalf("RawQuery(%q): %v", cmd, err)
		}
		res, err := st.Search(context.Background(), cmd, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rawLines) != len(res.Lines) {
			t.Fatalf("RawQuery(%q) = %d matches, compressed = %d", cmd, len(rawLines), len(res.Lines))
		}
		for i := range rawLines {
			if rawLines[i] != res.Lines[i] || rawEntries[i] != res.Entries[i] {
				t.Fatalf("RawQuery(%q): mismatch at %d", cmd, i)
			}
		}
	}
}
