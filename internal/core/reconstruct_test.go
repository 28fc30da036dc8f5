package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"loggrep/internal/capsule"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

// reconstructOptions are the box layouts the Reconstructor must read: the
// paper's default, each ablation that changes a capsule's layout, and
// chunked capsules.
func reconstructOptions() map[string]Options {
	noPad, noStamps, sp, noNominal := DefaultOptions(), DefaultOptions(), DefaultOptions(), DefaultOptions()
	noPad.DisablePadding = true
	noStamps.DisableStamps = true
	sp.StaticOnly = true
	noNominal.DisableNominal = true
	chunked := DefaultOptions()
	chunked.ChunkBytes = 2 << 10
	return map[string]Options{"default": DefaultOptions(), "no-pad": noPad, "no-stamps": noStamps, "sp": sp, "no-nominal": noNominal, "chunked": chunked}
}

// restoreCase is one block of the Reconstructor's conformance corpus.
type restoreCase struct {
	name  string // layout/type
	block []byte // the raw block, every line ending in '\n'
	data  []byte // its CapsuleBox
}

// shapeBlocks are blocks made to take the Reconstructor's rarer branches,
// which no loggen type's block does: a real vector with outlier rows (two
// addresses its runtime pattern cannot parse; the pattern ends in a literal
// "/" that an outlier row must not print), a nominal dictionary of
// several runtime patterns, so several padded segments, and a fifth of the
// lines block outliers (a merged template's static "login" said otherwise
// on lines off the parser's sampling stride).
func shapeBlocks() map[string][]byte {
	var real, nominal, outliers []string
	for i := 0; i < 800; i++ {
		if i%5 == 1 {
			outliers = append(outliers, fmt.Sprintf("user zed logoutafteralongidlesessionnumber%d ok", i))
		} else {
			outliers = append(outliers, fmt.Sprintf("user u%c%c login ok", 'a'+i%26, 'a'+i/26%26))
		}
	}
	for i := 0; i < 60; i++ {
		addr := fmt.Sprintf("10.%d.%d.%d:%d/", i%7, i*13%256, i*29%256, 8000+i)
		if i == 17 || i == 40 {
			addr = []string{"10.1.2", "fe80::1"}[i%2]
		}
		real = append(real, fmt.Sprintf("connect to %s done", addr))
		nominal = append(nominal, fmt.Sprintf("state %s now", []string{"alpha", "beta-12", "gamma:3:x", "delta_77"}[i%4]))
	}
	return map[string][]byte{"outlier-rows": makeBlock(real...), "dict-segments": makeBlock(nominal...), "outlier-lines": makeBlock(outliers...)}
}

// restoreCases compresses a block of every log type, and each of
// shapeBlocks, under every layout of reconstructOptions, once per test
// binary.
var restoreCases = sync.OnceValue(func() []restoreCase {
	n := 600
	if testing.Short() {
		n = 150
	}
	var cases []restoreCase
	for name, opts := range reconstructOptions() {
		for ti, lt := range loggen.All() {
			block := lt.Block(int64(11+ti), n)
			cases = append(cases, restoreCase{name: name + "/" + lt.Name, block: block, data: Compress(block, opts)})
		}
		for shape, block := range shapeBlocks() {
			cases = append(cases, restoreCase{name: name + "/" + shape, block: block, data: Compress(block, opts)})
		}
	}
	slices.SortFunc(cases, func(a, b restoreCase) int { return strings.Compare(a.name, b.name) })
	return cases
})

// TestReconstructPathsAgree: over every log type and box layout, the whole
// block restore — as bytes and as lines — and the one-line restore all give
// back the input.
func TestReconstructPathsAgree(t *testing.T) {
	for _, c := range restoreCases() {
		want := logparse.SplitLines(c.block)
		st, err := Open(c.data, QueryOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		raw, err := st.AppendAll([]byte("prefix"))
		if err != nil {
			t.Fatalf("%s: AppendAll: %v", c.name, err)
		}
		if !bytes.Equal(raw, append([]byte("prefix"), c.block...)) {
			t.Fatalf("%s: AppendAll differs from the input", c.name)
		}
		all, err := st.ReconstructAll()
		if err != nil {
			t.Fatalf("%s: ReconstructAll: %v", c.name, err)
		}
		if !slices.Equal(all, want) {
			t.Fatalf("%s: ReconstructAll differs from the input", c.name)
		}
		one := mustReopen(t, c.data)
		for i := range want {
			got, err := one.ReconstructLine(context.Background(), i)
			if err != nil {
				t.Fatalf("%s: ReconstructLine(%d): %v", c.name, i, err)
			}
			if got != want[i] {
				t.Fatalf("%s: ReconstructLine(%d) = %q, want %q", c.name, i, got, want[i])
			}
		}
	}
}

// TestRestoreBoundHolds: the bound AppendAll sizes its buffer from is never
// below what the block restores to, on every log type and box layout, so
// the buffer is allocated once and never regrown.
func TestRestoreBoundHolds(t *testing.T) {
	var ratios []float64
	for _, c := range restoreCases() {
		st := mustReopen(t, c.data)
		bound := st.restoreBound()
		if bound < len(c.block) {
			t.Fatalf("%s: bound %d below the block's %d bytes", c.name, bound, len(c.block))
		}
		out, err := st.AppendAll(nil)
		if err != nil {
			t.Fatal(err)
		}
		// Never regrown: the capacity is the first allocation's, the bound
		// rounded up to its size class.
		if want := cap(slices.Grow([]byte(nil), bound)); cap(out) != want {
			t.Fatalf("%s: AppendAll(nil) ended with capacity %d, want the bound's %d", c.name, cap(out), want)
		}
		ratios = append(ratios, float64(bound)/float64(len(c.block)))
	}
	slices.Sort(ratios)
	t.Logf("bound/restored over %d blocks: min %.3f, median %.3f, max %.3f",
		len(ratios), ratios[0], ratios[len(ratios)/2], ratios[len(ratios)-1])
}

// TestReconstructLineDecompressions: on chunked boxes, restoring one line
// from a fresh store decodes, per capsule the row reads, the one chunk
// holding its value — and a capsule resolved whole (a dictionary, the block
// outlier capsule) every chunk of it, once.
func TestReconstructLineDecompressions(t *testing.T) {
	for _, c := range restoreCases() {
		if !strings.HasPrefix(c.name, "chunked/") {
			continue
		}
		lines := []int{0, 1, len(logparse.SplitLines(c.block)) / 2}
		for _, line := range lines {
			st := mustReopen(t, c.data)
			if _, err := st.ReconstructLine(context.Background(), line); err != nil {
				t.Fatal(err)
			}
			if want := touchedChunks(t, st, line); st.box.Decompressions != want {
				t.Fatalf("%s: line %d decoded %d chunks, want %d", c.name, line, st.box.Decompressions, want)
			}
		}
	}
}

// touchedChunks counts, off the directory alone, the chunks a restore of
// line decodes: one per capsule read value by value (sub-variables, an
// outlier value, the index), every chunk of a capsule read whole.
func touchedChunks(t *testing.T, st *Store, line int) int {
	t.Helper()
	index, err := st.lineRefs()
	if err != nil {
		t.Fatal(err)
	}
	ref := index[line]
	whole := func(id int) int { return st.box.ChunkCount(id) }
	byValue := func(id int) int {
		if st.box.Meta.Capsules[id].ChunkRows > 0 {
			return 1
		}
		return whole(id)
	}
	if ref.group < 0 {
		return whole(st.box.Meta.OutlierCapID)
	}
	g := &st.box.Meta.Groups[ref.group]
	n := 0
	for _, te := range g.Template {
		if te.Var < 0 {
			continue
		}
		vm := &g.Vars[te.Var]
		if vm.Kind == capsule.NominalVar {
			n += byValue(vm.IndexCapID) + whole(vm.DictCapID)
			continue
		}
		if _, out := slices.BinarySearch(vm.OutRows, ref.row); out {
			n += byValue(vm.OutCapID)
			continue
		}
		for _, e := range vm.Pattern {
			if e.Sub >= 0 {
				n += byValue(e.CapID)
			}
		}
	}
	return n
}

// readOrder runs op on a fresh store over data and returns the payload
// reads it made, in order — each as the capsule ids (or "id.chunk") that
// read left cached — and the store's decompression count. The read hook is
// not told what is about to be read, so it notes what the reads before it
// left behind.
func readOrder(t *testing.T, data []byte, op func(*Store) error) (string, int) {
	t.Helper()
	var st *Store
	var reads []string
	seen := make(map[string]bool)
	note := func() {
		var fresh []string
		for id := range st.box.CacheSnapshot() {
			fresh = append(fresh, fmt.Sprint(id))
		}
		for key := range st.chunkSearchers {
			fresh = append(fresh, fmt.Sprintf("%d.%d", key[0], key[1]))
		}
		fresh = slices.DeleteFunc(fresh, func(k string) bool { return seen[k] })
		for _, k := range fresh {
			seen[k] = true
		}
		slices.Sort(fresh)
		reads = append(reads, strings.Join(fresh, "+"))
	}
	st, err := Open(data, QueryOptions{ReadHook: func(context.Context) error { note(); return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if err := op(st); err != nil {
		t.Fatal(err)
	}
	note()
	// reads[0] is what was cached before the first read: nothing.
	return strings.Join(reads[1:], " "), st.box.Decompressions
}

// TestReconstructReadsPinned pins, on fresh stores, which capsule payloads
// a line restore and a verifying query read, in which order, and how many
// decompressions that costs: the values the per-value Reconstructor
// produced. Row assembly may get faster; it must not read more, less, or
// in another order, since the read hook, the budget and the checkpoint
// all see those reads. The query pins of G and A/chunked are the
// decode-free narrowing pass's: before it they read 18 and 30.
func TestReconstructReadsPinned(t *testing.T) {
	type pin struct {
		reads string
		dec   int
	}
	chunked := DefaultOptions()
	chunked.ChunkBytes = 512
	noPad := DefaultOptions()
	noPad.DisablePadding = true
	cases := []struct {
		name, typ string
		cmd       string // "" = the type's Table-1 query
		opts      Options
		lines     []int
		line      pin // ReconstructLine over lines
		query     pin // Search(cmd)
	}{
		{name: "I", typ: "I", cmd: "ERROR", opts: DefaultOptions(), lines: []int{0, 333, 799},
			line:  pin{"1 0 2 3 4 6 5 7 45 44 46 47 48 50 49 51 182 181 183 184 185 186", 22},
			query: pin{"98 111 118 234 274 320 341 371 45 44 46 47 48 50 49 51", 16}},
		{name: "G", typ: "G", opts: DefaultOptions(), lines: []int{5, 400, 401},
			line:  pin{"39 38 40 41 42 44 43 45 46 47 48 49 281 280 282 283 284 286 285 287 51 50 52 53 54 56 55 57 58 59 60 61", 32},
			query: pin{"60 279 57 58 59 55 56 51 50 52 53 54 61", 13}},
		{name: "T/no-pad", typ: "T", cmd: "ERROR", opts: noPad, lines: []int{0, 799},
			line:  pin{"1 0 2 3 4 5 7 6 8 144 143 145 146 147 148", 15},
			query: pin{"141 241 325 397 44 43 45 46 47 48 50 49 51", 13}},
		{name: "A/chunked", typ: "A", opts: chunked, lines: []int{10, 11, 700},
			line:  pin{"60 59 61 62 63 64 65 66 67 1 0 2 3 4 5.0 6 7 8 167 166 168 169 170 171", 24},
			query: pin{"39 242 373 34 40 35 36 37 38 41 42", 13}},
	}
	for _, c := range cases {
		lt, _ := loggen.ByName(c.typ)
		data := Compress(lt.Block(3, 800), c.opts)
		reads, dec := readOrder(t, data, func(st *Store) error {
			for _, l := range c.lines {
				if _, err := st.ReconstructLine(context.Background(), l); err != nil {
					return err
				}
			}
			return nil
		})
		cmd := c.cmd
		if cmd == "" {
			cmd = lt.Query
		}
		qreads, qdec := readOrder(t, data, func(st *Store) error {
			_, err := st.Search(context.Background(), cmd, SearchOpts{})
			return err
		})
		if got := (pin{reads, dec}); got != c.line {
			t.Errorf("%s: line restore read %+v, want %+v", c.name, got, c.line)
		}
		if got := (pin{qreads, qdec}); got != c.query {
			t.Errorf("%s: verifying query read %+v, want %+v", c.name, got, c.query)
		}
	}
}

// TestParseIndexMatchesAtoi: an index entry parses as strconv.Atoi parses
// it, failing on exactly the same entries.
func TestParseIndexMatchesAtoi(t *testing.T) {
	cases := []string{
		"", "0", "7", "0042", "+5", "-5", "-0", "+", "-", "--1", "+-1", "1-", " 1", "1 ", "1_000", "0x1F", "\x001",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"09223372036854775807", "99999999999999999999", "18446744073709551616", "00000000000000000000",
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(21))
		for j := range b {
			b[j] = "0123456789+- a\x00"[rng.Intn(15)]
		}
		cases = append(cases, string(b))
	}
	for _, c := range cases {
		want, werr := strconv.Atoi(c)
		got, ok := parseIndex([]byte(c))
		if ok != (werr == nil) || (ok && got != want) {
			t.Fatalf("parseIndex(%q) = %d, %v; strconv.Atoi = %d, %v", c, got, ok, want, werr)
		}
	}
}

// TestPlanSharedAcrossGoroutines restores from one store on several
// goroutines at once — whole blocks, single lines, verifying queries — while
// another drops its columns and row plans between rounds, as a sealed
// stream's store is shared by concurrent queries. Every answer stays whole.
func TestPlanSharedAcrossGoroutines(t *testing.T) {
	lt, _ := loggen.ByName("I")
	block := lt.Block(7, 800)
	want := logparse.SplitLines(block)
	st := mustReopen(t, Compress(block, DefaultOptions()))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch g {
				case 0:
					if got, err := st.AppendAll(nil); err != nil || !bytes.Equal(got, block) {
						t.Errorf("AppendAll: %v, equal %v", err, bytes.Equal(got, block))
					}
				case 1:
					line := (i * 131) % len(want)
					if got, err := st.ReconstructLine(context.Background(), line); err != nil || got != want[line] {
						t.Errorf("ReconstructLine(%d) = %q, %v", line, got, err)
					}
				case 2:
					res, err := st.Search(context.Background(), fmt.Sprintf("ERROR OR absent%d", i), SearchOpts{})
					if err != nil || res.Matches == 0 {
						t.Errorf("query: %v", err)
					}
				default:
					st.ResetCounters()
				}
			}
		}(g)
	}
	wg.Wait()
}
