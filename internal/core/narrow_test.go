package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"loggrep/internal/capsule"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
	"loggrep/internal/obsv"
	"loggrep/internal/query"
)

// randomLeaf draws a search string from the block's own text, so most
// leaves match something: a whole token, a piece of one, a token with a run
// replaced by '*', or a two-word phrase. Now and then it returns a string
// no line holds.
func randomLeaf(rng *rand.Rand, lines []string) string {
	for {
		words := strings.Fields(lines[rng.Intn(len(lines))])
		i := rng.Intn(len(words))
		w := words[i]
		switch rng.Intn(6) {
		case 0:
			if len(w) > 4 {
				from := rng.Intn(len(w) - 3)
				w = w[from : from+3+rng.Intn(len(w)-from-2)]
			}
		case 1:
			if len(w) > 4 {
				from := 1 + rng.Intn(len(w)-3)
				w = w[:from] + "*" + w[from+1+rng.Intn(len(w)-from-1):]
			}
		case 2:
			if i+1 < len(words) {
				w += " " + words[i+1]
			}
		case 3:
			if rng.Intn(4) == 0 {
				w = fmt.Sprintf("absent%06x", rng.Intn(1<<24))
			}
		}
		up := strings.ToUpper(w)
		if strings.ContainsAny(w, "()\"") || up == "AND" || up == "OR" || up == "NOT" ||
			strings.Contains(up, " AND ") || strings.Contains(up, " OR ") || strings.Contains(up, " NOT ") {
			continue
		}
		return w
	}
}

// randomTree renders a random AND/OR/NOT tree over random leaves.
func randomTree(rng *rand.Rand, lines []string, depth int) string {
	if depth == 0 || rng.Intn(4) == 0 {
		return randomLeaf(rng, lines)
	}
	l, r := randomTree(rng, lines, depth-1), randomTree(rng, lines, depth-1)
	switch rng.Intn(6) {
	case 0, 1, 2:
		return "(" + l + " AND " + r + ")"
	case 3:
		return "(" + l + " OR " + r + ")"
	case 4:
		return "(" + l + " NOT " + r + ")"
	default:
		return "(NOT " + l + ")"
	}
}

// RandomTree lends the generator to TestSourceKindsAgree (package
// core_test: it needs the archive and ingest layers, which import core).
var RandomTree = randomTree

// TestNarrowingOracle is the soundness test of AND narrowing: over every
// production log type, random AND/OR/NOT/wildcard trees answer exactly what
// a line-by-line matcher over the raw block answers, and Count agrees. Each
// store is reused across its trees, so narrowed scans also meet warm scan
// caches filled by unrestricted ones and vice versa.
func TestNarrowingOracle(t *testing.T) {
	trees := 40
	if testing.Short() {
		trees = 8
	}
	for ti, lt := range loggen.Production() {
		block := lt.Block(int64(100+ti), 1200)
		lines := logparse.SplitLines(block)
		st, err := Open(Compress(block, DefaultOptions()), QueryOptions{DisableCache: true})
		if err != nil {
			t.Fatalf("type %s: %v", lt.Name, err)
		}
		rng := rand.New(rand.NewSource(int64(ti)))
		cmds := []string{lt.Query}
		for i := 0; i < trees; i++ {
			cmds = append(cmds, randomTree(rng, lines, 1+rng.Intn(3)))
		}
		for _, cmd := range cmds {
			wantLines, wantEntries, err := RawQuery(block, cmd)
			if err != nil {
				t.Fatalf("type %s: RawQuery(%q): %v", lt.Name, cmd, err)
			}
			res, err := st.Search(context.Background(), cmd, SearchOpts{})
			if err != nil {
				t.Fatalf("type %s: Query(%q): %v", lt.Name, cmd, err)
			}
			if !slices.Equal(res.Lines, wantLines) || !slices.Equal(res.Entries, wantEntries) {
				t.Fatalf("type %s: Query(%q) = %d lines %v, raw grep %d lines %v",
					lt.Name, cmd, len(res.Lines), res.Lines, len(wantLines), wantLines)
			}
			st.ClearCache() // or the cached query answers the count
			if cnt, err := st.Search(context.Background(), cmd, SearchOpts{CountOnly: true}); err != nil || cnt.Matches != len(wantLines) {
				t.Fatalf("type %s: count of %q = %+v, %v; want %d", lt.Name, cmd, cnt, err, len(wantLines))
			}
		}
	}
}

// readKinds runs cmd cold and returns the kind of capsule each gated read
// fetched, in order. The hook is not told what is about to be read, so it
// notes what the reads before it left in the box's payload cache.
func readKinds(t *testing.T, st *Store, cmd string) []capsule.Kind {
	t.Helper()
	st.ResetCounters()
	var kinds []capsule.Kind
	seen := make(map[int]bool)
	note := func() {
		for id := range st.box.CacheSnapshot() {
			if !seen[id] {
				seen[id] = true
				kinds = append(kinds, st.box.Meta.Capsules[id].Kind)
			}
		}
	}
	calls := 0
	st.SetReadHook(func(context.Context) error {
		note()
		if calls++; len(kinds) != calls-1 {
			t.Fatalf("%q: %d payloads cached before gated read %d", cmd, len(kinds), calls)
		}
		return nil
	})
	_, err := st.Search(context.Background(), cmd, SearchOpts{})
	st.SetReadHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	note()
	return kinds
}

// TestReadHookGatesEveryRead is ReadHook's contract — "before each capsule
// payload fetch" — over every log type: a cold Table-1 query calls the hook
// once per decompression, dictionary capsules included, so an injected
// stall, a cancellation or a decompression cap can land on any of them.
func TestReadHookGatesEveryRead(t *testing.T) {
	var short []string
	for _, lt := range loggen.All() {
		calls := 0
		st, err := Open(Compress(lt.Block(1, 4000), DefaultOptions()), QueryOptions{
			ReadHook: func(context.Context) error { calls++; return nil },
		})
		if err != nil {
			t.Fatalf("type %s: %v", lt.Name, err)
		}
		res, err := st.Search(context.Background(), lt.Query, SearchOpts{})
		if err != nil {
			t.Fatalf("type %s: %v", lt.Name, err)
		}
		if calls != res.Decompressions {
			short = append(short, fmt.Sprintf("%s %d/%d", lt.Name, calls, res.Decompressions))
		}
	}
	if len(short) > 0 {
		t.Fatalf("hook calls / decompressions differ on %d types: %s", len(short), strings.Join(short, ", "))
	}
}

// TestNarrowingInterrupted cuts random trees short — by a work budget, and
// by a cancellation at the k-th payload read, so mid-filter for small k and
// on the query's first dictionary read when it has one — and checks the
// contract: a flagged subset of the truth, or a clean context error, and a
// store that answers in full afterwards. I, T and Hdfs are the
// nominal-heavy types: each must see a cancel land on a dictionary.
func TestNarrowingInterrupted(t *testing.T) {
	for ti, name := range []string{"A", "G", "S", "U", "I", "T", "Hdfs"} {
		dictCancels := 0
		lt, _ := loggen.ByName(name)
		block := lt.Block(int64(7+ti), 1500)
		lines := logparse.SplitLines(block)
		st, err := Open(Compress(block, DefaultOptions()), QueryOptions{DisableCache: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(50 + ti)))
		cmds := []string{lt.Query}
		for i := 0; i < 6; i++ {
			cmds = append(cmds, randomTree(rng, lines, 2))
		}
		for _, cmd := range cmds {
			wantLines, _, err := RawQuery(block, cmd)
			if err != nil {
				t.Fatal(err)
			}
			subset := func(what string, res *Result) {
				t.Helper()
				for i, line := range res.Lines {
					if _, ok := slices.BinarySearch(wantLines, line); !ok || res.Entries[i] != lines[line] {
						t.Fatalf("type %s %s %q: line %d is not a match of the raw block", name, what, cmd, line)
					}
				}
				if !res.Partial && len(res.Lines) != len(wantLines) {
					t.Fatalf("type %s %s %q: unflagged result has %d of %d matches", name, what, cmd, len(res.Lines), len(wantLines))
				}
			}
			for _, b := range []Budget{{MaxDecompressions: 1}, {MaxDecompressions: 5}, {MaxScannedBytes: 4 << 10}} {
				st.ResetCounters()
				res, err := st.Search(context.Background(), cmd, SearchOpts{Budget: NewBudgetState(b)})
				if err != nil {
					t.Fatalf("type %s budget %+v %q: %v", name, b, cmd, err)
				}
				subset(fmt.Sprintf("budget %+v", b), res)
			}
			ks := []int{1, 2, 4, 9}
			if k := slices.Index(readKinds(t, st, cmd), capsule.Dict) + 1; k > 0 {
				ks = append(ks, k)
				dictCancels++
			}
			for _, k := range ks {
				st.ResetCounters()
				ctx, cancel := context.WithCancel(context.Background())
				reads := 0
				st.SetReadHook(func(context.Context) error {
					if reads++; reads == k {
						cancel()
					}
					return nil
				})
				res, err := st.Search(ctx, cmd, SearchOpts{})
				cancel()
				st.SetReadHook(nil)
				switch {
				case err == nil:
					subset(fmt.Sprintf("cancel at read %d", k), res)
				case !errors.Is(err, context.Canceled):
					t.Fatalf("type %s cancel at read %d %q: %v", name, k, cmd, err)
				}
			}
			st.ResetCounters()
			res, err := st.Search(context.Background(), cmd, SearchOpts{})
			if err != nil || !slices.Equal(res.Lines, wantLines) {
				t.Fatalf("type %s %q after interruptions: %v, %d of %d matches", name, cmd, err, len(res.Lines), len(wantLines))
			}
		}
		if dictCancels == 0 && slices.Contains([]string{"I", "T", "Hdfs"}, name) {
			t.Errorf("type %s: no query read a dictionary capsule, so no cancel landed on one", name)
		}
	}
}

// spanAttrs sums a trace's span attributes by name.
func spanAttrs(tr *obsv.Trace) map[string]int64 {
	sum := make(map[string]int64)
	for _, sp := range tr.Data().Spans {
		for _, a := range sp.Attrs {
			sum[a.Key] += a.Val
		}
	}
	return sum
}

// TestNarrowingCounters pins what narrowing saves, in work counters rather
// than wall-clock: the four-conjunct Table-1 query of log type A on one
// cold block does at least 3× less decompressing and scanning than the
// parent commit (7abb5d0, where every conjunct was evaluated in every
// group: 209 filter + 7 verify decompressions, 91 capsule scans on this
// block), and a query whose first conjunct the block does not hold decodes
// no line map at all.
func TestNarrowingCounters(t *testing.T) {
	const parentDecompressions, parentCapsuleScans = 216, 91
	lt, _ := loggen.ByName("A")
	block := lt.Block(11, 20000)
	open := func() *Store {
		st, err := Open(Compress(block, DefaultOptions()), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	res, tr, err := searchTraced(open(), lt.Query)
	if err != nil {
		t.Fatal(err)
	}
	got := spanAttrs(tr)
	if len(res.Lines) != 60 {
		t.Fatalf("%d matches, want 60", len(res.Lines))
	}
	if 3*got["decompressions"] > parentDecompressions || 3*got["capsule_scans"] > parentCapsuleScans {
		t.Errorf("decompressions %d (parent %d), capsule_scans %d (parent %d): want both at least 3x lower\n%s",
			got["decompressions"], parentDecompressions, got["capsule_scans"], parentCapsuleScans, tr.Outline())
	}
	if got["line_maps"] != 1 {
		t.Errorf("line maps decoded = %d, want 1: every match sits in the needle's group\n%s", got["line_maps"], tr.Outline())
	}

	res, tr, err = searchTraced(open(), "absent0123456789 AND ERROR")
	if err != nil {
		t.Fatal(err)
	}
	if got := spanAttrs(tr); len(res.Lines) != 0 || got["line_maps"] != 0 {
		t.Errorf("absent first conjunct: %d matches, %d line maps decoded, want 0 and 0\n%s", len(res.Lines), got["line_maps"], tr.Outline())
	}
}

// TestDecodeFreeNarrowingCounters pins what the decode-free pass saves, in
// work counters: the Table-1 needle of log type I, whose other conjunct is
// the template literal WARNING, decompresses at most half of what the
// parent commit (e99ebe2, no pass: the date conjunct was evaluated in every
// group, 135 filter + 1 verify decompressions and 27 capsule scans on this
// block) did on one cold block, and the filter span says how many groups
// the pass emptied.
func TestDecodeFreeNarrowingCounters(t *testing.T) {
	const parentDecompressions = 136
	lt, _ := loggen.ByName("I")
	st, err := Open(Compress(lt.Block(11, 20000), DefaultOptions()), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, tr, err := searchTraced(st, lt.Query)
	if err != nil {
		t.Fatal(err)
	}
	got := spanAttrs(tr)
	if len(res.Lines) != 61 {
		t.Fatalf("%d matches, want 61", len(res.Lines))
	}
	if 2*got["decompressions"] > parentDecompressions || res.Decompressions != int(got["decompressions"]) {
		t.Errorf("decompressions %d (result %d, parent %d): want at most half\n%s",
			got["decompressions"], res.Decompressions, parentDecompressions, tr.Outline())
	}
	if got["groups_dropped_before_decode"] == 0 {
		t.Errorf("the filter span reports no group dropped before decode\n%s", tr.Outline())
	}
}

// TestDecodeFreePassSound is the soundness test of the decode-free
// narrowing pass (Store.narrow). Over every production type, random
// AND/OR/NOT/wildcard trees — each run through the pass whatever its shape —
// must leave a set that holds every row the raw-grep oracle matches, per
// group and in the outlier slot, while the pass decompresses nothing,
// calls no read hook, decodes no line map and leaves the scan cache as it
// found it. Each store also answers every tree for real in between, so
// later passes meet cached scans. Nominal-heavy I also runs unpadded,
// without stamps and as LogGrep-SP, and a block of parse outliers puts
// matches in the outlier slot.
func TestDecodeFreePassSound(t *testing.T) {
	trees := 30
	if testing.Short() {
		trees = 8
	}
	type variant struct {
		name  string
		block []byte
		query string
		opts  Options
	}
	var variants []variant
	for ti, lt := range loggen.Production() {
		variants = append(variants, variant{lt.Name, lt.Block(int64(500+ti), 1200), lt.Query, DefaultOptions()})
	}
	lt, _ := loggen.ByName("I")
	noPad, noStamps, sp := DefaultOptions(), DefaultOptions(), DefaultOptions()
	noPad.DisablePadding, noStamps.DisableStamps, sp.StaticOnly = true, true, true
	for _, o := range []struct {
		name string
		opts Options
	}{{"I/no-pad", noPad}, {"I/no-stamps", noStamps}, {"I/static-only", sp}} {
		variants = append(variants, variant{o.name, lt.Block(600, 1200), lt.Query, o.opts})
	}
	variants = append(variants, variant{"outliers", outlierBlock(), "CONST AND v1", DefaultOptions()})

	ctx := context.Background()
	outlierMatches, dropped := 0, 0
	for vi, v := range variants {
		block := v.block
		lines := logparse.SplitLines(block)
		data := Compress(block, v.opts)
		hooks := 0
		st, err := Open(data, QueryOptions{DisableCache: true, ReadHook: func(context.Context) error { hooks++; return nil }})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		ref, err := Open(data, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		index, err := ref.lineRefs()
		if err != nil {
			t.Fatal(err)
		}
		pendingMaps := func() int {
			n := 0
			for _, g := range st.groups {
				if g.meta.Lines.Pending() {
					n++
				}
			}
			return n
		}
		rng := rand.New(rand.NewSource(int64(vi)))
		cmds := []string{v.query}
		for i := 0; i < trees; i++ {
			cmds = append(cmds, randomTree(rng, lines, 1+rng.Intn(3)))
		}
		for _, cmd := range cmds {
			expr, err := query.Parse(cmd)
			if err != nil {
				t.Fatal(err)
			}
			cached := make(map[findKey][]int, len(st.findCache))
			for key, set := range st.findCache {
				cached[key] = set.Rows()
			}
			dec, hooks0, pending := st.box.Decompressions, hooks, pendingMaps()
			pass := st.decodeFree(expr)
			if d := st.box.Decompressions - dec; d != 0 || hooks != hooks0 || pendingMaps() != pending {
				t.Fatalf("%s %q: the pass made %d decompressions, %d read-hook calls, decoded %d line maps",
					v.name, cmd, d, hooks-hooks0, pending-pendingMaps())
			}
			if len(st.findCache) != len(cached) {
				t.Fatalf("%s %q: the pass grew the scan cache from %d to %d entries", v.name, cmd, len(cached), len(st.findCache))
			}
			for key, set := range st.findCache {
				if rows, ok := cached[key]; !ok || !slices.Equal(set.Rows(), rows) {
					t.Fatalf("%s %q: the pass changed the cached scan %+v", v.name, cmd, key)
				}
			}
			want, _, err := RawQuery(block, cmd)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range want {
				r := index[line]
				slot := r.group
				if slot < 0 {
					slot = len(st.groups)
					outlierMatches++
				}
				if !passHolds(pass, slot, r.row) {
					t.Fatalf("%s %q: line %d (slot %d of %d, row %d) matches the raw block; the pass dropped it",
						v.name, cmd, line, slot, len(st.groups), r.row)
				}
			}
			dropped += st.dropped(pass)
			res, err := st.Search(ctx, cmd, SearchOpts{})
			if err != nil || !slices.Equal(res.Lines, want) {
				t.Fatalf("%s %q: %v, %d lines, raw grep %d", v.name, cmd, err, len(res.Lines), len(want))
			}
		}
	}
	if outlierMatches == 0 || dropped == 0 {
		t.Errorf("the series matched %d outlier lines and the pass dropped %d groups: it proves nothing about one of them", outlierMatches, dropped)
	}
}

// passHolds reports whether rs lists row in slot.
func passHolds(rs *rowSets, slot, row int) bool {
	for _, s := range rs.slots {
		if s.slot == slot {
			found := false
			s.rows.ForEach(func(r int) bool {
				found = r == row
				return r < row
			})
			return found
		}
	}
	return false
}
