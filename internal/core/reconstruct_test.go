package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

// reconstructOptions are the box layouts the Reconstructor must read: the
// paper's default, each ablation that changes a capsule's layout, and
// chunked capsules.
func reconstructOptions() map[string]Options {
	noPad, noStamps, sp := DefaultOptions(), DefaultOptions(), DefaultOptions()
	noPad.DisablePadding = true
	noStamps.DisableStamps = true
	sp.StaticOnly = true
	chunked := DefaultOptions()
	chunked.ChunkBytes = 2 << 10
	return map[string]Options{"default": DefaultOptions(), "no-pad": noPad, "no-stamps": noStamps, "sp": sp, "chunked": chunked}
}

// TestReconstructPathsAgree: over every log type and box layout, the whole
// block restore and the one-line restore both give back the input lines.
func TestReconstructPathsAgree(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 150
	}
	for name, opts := range reconstructOptions() {
		for ti, lt := range loggen.All() {
			block := lt.Block(int64(11+ti), n)
			want := logparse.SplitLines(block)
			data := Compress(block, opts)
			st, err := Open(data, QueryOptions{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, lt.Name, err)
			}
			all, err := st.ReconstructAll()
			if err != nil {
				t.Fatalf("%s/%s: ReconstructAll: %v", name, lt.Name, err)
			}
			if !slices.Equal(all, want) {
				t.Fatalf("%s/%s: ReconstructAll differs from the input", name, lt.Name)
			}
			one, err := Open(data, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				got, err := one.ReconstructLine(context.Background(), i)
				if err != nil {
					t.Fatalf("%s/%s: ReconstructLine(%d): %v", name, lt.Name, i, err)
				}
				if got != want[i] {
					t.Fatalf("%s/%s: ReconstructLine(%d) = %q, want %q", name, lt.Name, i, got, want[i])
				}
			}
		}
	}
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
// all see those reads.
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
			query: pin{"10 29 36 48 60 279 377 57 58 59 55 56 51 50 52 53 54 61", 18}},
		{name: "T/no-pad", typ: "T", cmd: "ERROR", opts: noPad, lines: []int{0, 799},
			line:  pin{"1 0 2 3 4 5 7 6 8 144 143 145 146 147 148", 15},
			query: pin{"141 241 325 397 44 43 45 46 47 48 50 49 51", 13}},
		{name: "A/chunked", typ: "A", opts: chunked, lines: []int{10, 11, 700},
			line:  pin{"60 59 61 62 63 64 65 66 67 1 0 2 3 4 5.0 6 7 8 167 166 168 169 170 171", 24},
			query: pin{"5 39 48 55 64 73 90 156 242 248 257 272 333 342 373 457 34 40 35 36 37 38 41 42", 30}},
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
