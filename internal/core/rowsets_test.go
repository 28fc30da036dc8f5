package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
	"loggrep/internal/strmatch"
)

// TestScanCacheSetsNeverWritten pins the row-set ownership rule: a capsule
// hole hands out its findCache entry itself, so no combinator may write a
// set it was given. A seeded series of AND/OR/NOT trees — filtered to a
// superset and, as counts, exactly, which complements under NOT — runs on
// one store per log type. After every query each cache entry must still
// hold the rows it held when it was inserted, and at the end those rows
// must be what a fresh store's scan finds.
func TestScanCacheSetsNeverWritten(t *testing.T) {
	ctx := context.Background()
	kinds := map[strmatch.Kind]int{}
	for ti, lt := range loggen.Production() {
		block := lt.Block(int64(300+ti), 800)
		lines := logparse.SplitLines(block)
		data := Compress(block, DefaultOptions())
		st, err := Open(data, QueryOptions{DisableCache: true})
		if err != nil {
			t.Fatalf("type %s: %v", lt.Name, err)
		}
		snap := map[findKey][]int{}
		rng := rand.New(rand.NewSource(int64(ti)))
		for i := 0; i < 25; i++ {
			cmd := randomTree(rng, lines, 1+rng.Intn(3))
			for _, o := range []SearchOpts{{}, {CountOnly: true}} {
				if _, err := st.Search(ctx, cmd, o); err != nil {
					t.Fatalf("type %s: %q: %v", lt.Name, cmd, err)
				}
				for key, v := range st.findCache {
					rows, ok := snap[key]
					if !ok {
						snap[key] = v.Rows()
						kinds[key.kind]++
						continue
					}
					if !slices.Equal(v.Rows(), rows) {
						t.Fatalf("type %s: after %q the cached scan %+v holds %v, inserted as %v", lt.Name, cmd, key, v.Rows(), rows)
					}
				}
			}
		}
		fresh, err := Open(data, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for key, rows := range snap {
			v, err := (&capsuleHole{st: fresh, id: key.id}).find(key.part, key.kind)
			if err != nil || !slices.Equal(v.Rows(), rows) {
				t.Fatalf("type %s: cached scan %+v held %v, a fresh scan finds %v (%v)", lt.Name, key, rows, v.Rows(), err)
			}
		}
	}
	for _, k := range []strmatch.Kind{strmatch.Substr, strmatch.Prefix, strmatch.Suffix, strmatch.Exact} {
		if kinds[k] == 0 {
			t.Errorf("no %v scan was cached; the series does not cover that kind", k)
		}
	}
}

// TestWarmRefineAllocs bounds what a warm refine-shaped query allocates:
// with every payload decoded and every scan cached, the filter's empty,
// full and cached row sets cost nothing, so what is left is parsing the
// command, the per-search bookkeeping and the matched entries.
func TestWarmRefineAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters change allocation counts")
	}
	var block []byte
	for i, name := range []string{"A", "G", "I", "S"} {
		lt, _ := loggen.ByName(name)
		block = append(block, lt.Block(int64(40+i), 1500)...)
	}
	st, err := Open(Compress(block, DefaultOptions()), QueryOptions{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	cmds := refineCommands(logparse.SplitLines(block), 60)
	if len(cmds) < 30 {
		t.Fatalf("only %d refine commands", len(cmds))
	}
	ctx := context.Background()
	for _, c := range cmds {
		if res, err := st.Search(ctx, c, SearchOpts{}); err != nil || res.Matches == 0 {
			t.Fatalf("%q: %+v, %v", c, res, err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(3*len(cmds), func() {
		if _, err := st.Search(ctx, cmds[i%len(cmds)], SearchOpts{}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// A tenth of the 1 020 the same queries made when every hole and
	// combinator allocated a fresh set.
	if allocs > 100 {
		t.Fatalf("a warm refine query makes %.1f allocations, want at most 100", allocs)
	}
}
