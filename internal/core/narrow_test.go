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
