package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"loggrep/internal/capsule"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

// FuzzCompressReconstruct: any text block must compress and reconstruct
// byte-exactly.
func FuzzCompressReconstruct(f *testing.F) {
	f.Add([]byte("T134 bk.FF.13 read\nT169 state: SUC#1604\n"))
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Fuzz(func(t *testing.T, block []byte) {
		if len(block) > 1<<14 {
			return
		}
		// Normalize to text: the system stores text logs (no NUL pad
		// bytes, '\n' as separator).
		for i, b := range block {
			if b == 0 {
				block[i] = 1
			}
		}
		st, err := Open(Compress(block, DefaultOptions()), QueryOptions{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		got, err := st.ReconstructAll()
		if err != nil {
			t.Fatalf("reconstruct: %v", err)
		}
		want := logparse.SplitLines(block)
		if len(got) != len(want) {
			t.Fatalf("lines %d != %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("line %d: %q != %q", i, got[i], want[i])
			}
		}
	})
}

// FuzzOpen: arbitrary bytes must never panic Store construction, simple
// queries or reconstruction, and on a box that opens every restore path
// (checkRestorePaths) agrees: the same lines, or all fail, with corruption.
func FuzzOpen(f *testing.F) {
	f.Add(Compress([]byte("a b c\n"), DefaultOptions()))
	f.Add([]byte("LGRPBOX1 garbage"))
	f.Add([]byte("LGRPBOX2 garbage"))
	f.Add([]byte("LGRPBOX3\x01 garbage"))
	// Nominal and real vectors, padded and delimited, whole and in chunks:
	// the Reconstructor's every path, for the mutator to damage.
	noPad := DefaultOptions()
	noPad.DisablePadding = true
	chunked := DefaultOptions()
	chunked.ChunkBytes = 64
	lt, _ := loggen.ByName("I")
	for _, o := range []Options{DefaultOptions(), noPad, chunked} {
		f.Add(Compress(lt.Block(1, 40), o))
	}
	// A real vector with outlier rows, a dictionary of several padded
	// segments, and a LogGrep-SP box.
	for _, data := range directorySeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Open(data, QueryOptions{})
		if err != nil {
			return
		}
		st.Search(context.Background(), "a AND b", SearchOpts{})
		st.Search(context.Background(), "read OR NOT state:", SearchOpts{})
		st.ReconstructAll()
		checkRestorePaths(t, data)
	})
}

// mustReopen opens a box that opened once already.
func mustReopen(t *testing.T, data []byte) *Store {
	t.Helper()
	st, err := Open(data, QueryOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return st
}

// directorySeeds returns boxes whose directories take the Reconstructor's
// rarer branches — shapeBlocks' real vector with outlier rows and
// dictionary of several padded segments, and a StaticOnly box — and fails
// when a box lacks the shape it is there for.
func directorySeeds(tb testing.TB) [][]byte {
	tb.Helper()
	sp := DefaultOptions()
	sp.StaticOnly = true
	lt, _ := loggen.ByName("I")
	blocks := shapeBlocks()
	seeds := [][]byte{
		Compress(blocks["outlier-rows"], DefaultOptions()),
		Compress(blocks["dict-segments"], DefaultOptions()),
		Compress(lt.Block(2, 40), sp),
	}
	shapes := []func(*capsule.Meta) bool{
		func(m *capsule.Meta) bool {
			return anyVar(m, func(vm *capsule.VarMeta) bool { return len(vm.OutRows) > 0 })
		},
		func(m *capsule.Meta) bool {
			return anyVar(m, func(vm *capsule.VarMeta) bool { return len(vm.DictPatterns) > 1 })
		},
		func(m *capsule.Meta) bool { return m.Flags&capsule.FlagStaticOnly != 0 },
	}
	for i, data := range seeds {
		box, err := capsule.ReadBox(data)
		if err != nil || !shapes[i](box.Meta) {
			tb.Fatalf("directory seed %d lacks its shape (%v)", i, err)
		}
	}
	return seeds
}

// anyVar reports whether any variable vector of m satisfies is.
func anyVar(m *capsule.Meta, is func(*capsule.VarMeta) bool) bool {
	for gi := range m.Groups {
		for vi := range m.Groups[gi].Vars {
			if is(&m.Groups[gi].Vars[vi]) {
				return true
			}
		}
	}
	return false
}

// TestMutatedDirectoryIsCorrupt rewrites one directory field at a time —
// widths, row counts, stamps, outlier rows, dictionary segments, capsule
// references — into otherwise intact boxes (the payloads kept, the box
// rebuilt around them), and runs every restore path on each: Open and each
// path must fail with capsule.ErrCorrupt or succeed, never panic, and the
// whole-block and one-line restores must agree.
func TestMutatedDirectoryIsCorrupt(t *testing.T) {
	noPad, chunked := DefaultOptions(), DefaultOptions()
	noPad.DisablePadding = true
	chunked.ChunkBytes = 64
	lt, _ := loggen.ByName("I")
	bases := directorySeeds(t)
	for _, o := range []Options{DefaultOptions(), noPad, chunked} {
		bases = append(bases, Compress(lt.Block(1, 60), o))
	}
	for bi, base := range bases {
		box, err := capsule.ReadBox(base)
		if err != nil {
			t.Fatal(err)
		}
		payloads := make([][]byte, len(box.Meta.Capsules))
		for id := range payloads {
			if payloads[id], err = box.Payload(id); err != nil {
				t.Fatal(err)
			}
		}
		for _, mut := range directoryMutations(box.Meta) {
			fresh, err := capsule.ReadBox(base)
			if err != nil {
				t.Fatal(err)
			}
			mut.apply(fresh.Meta)
			data := capsule.WriteBox(fresh.Meta, payloads, 0)
			t.Run(fmt.Sprintf("box%d/%s", bi, mut.name), func(t *testing.T) {
				checkRestorePaths(t, data)
			})
		}
	}
}

type dirMutation struct {
	name  string
	apply func(*capsule.Meta)
}

// directoryMutations lists single-field rewrites of a box's directory m.
func directoryMutations(m *capsule.Meta) []dirMutation {
	var muts []dirMutation
	add := func(name string, apply func(*capsule.Meta)) { muts = append(muts, dirMutation{name, apply}) }
	for _, id := range capsuleRoles(m) {
		add(fmt.Sprintf("cap%d-width+1", id), func(m *capsule.Meta) { m.Capsules[id].Width++ })
		add(fmt.Sprintf("cap%d-width-1", id), func(m *capsule.Meta) { m.Capsules[id].Width = max(0, m.Capsules[id].Width-1) })
		add(fmt.Sprintf("cap%d-width-huge", id), func(m *capsule.Meta) { m.Capsules[id].Width = 1<<31 - 1 })
		add(fmt.Sprintf("cap%d-rows+1", id), func(m *capsule.Meta) { m.Capsules[id].Rows++ })
		add(fmt.Sprintf("cap%d-maxlen-0", id), func(m *capsule.Meta) { m.Capsules[id].Stamp.MaxLen = 0 })
		add(fmt.Sprintf("cap%d-maxlen-huge", id), func(m *capsule.Meta) { m.Capsules[id].Stamp.MaxLen = 1<<31 - 1 })
	}
	if m.OutlierCapID >= 0 {
		add("outlier-cap-0", func(m *capsule.Meta) { m.OutlierCapID = 0 })
	}
	seen := map[string]bool{} // the vector roles mutated already
	for gi := range m.Groups {
		g := &m.Groups[gi]
		for ti, te := range g.Template {
			if te.Var >= 0 && !seen["template"] {
				seen["template"] = true
				add(fmt.Sprintf("g%d-t%d-var+1", gi, ti), func(m *capsule.Meta) { m.Groups[gi].Template[ti].Var++ })
			}
		}
		for vi := range g.Vars {
			vm := &g.Vars[vi]
			role := fmt.Sprint(vm.Kind, len(vm.OutRows) > 0, len(vm.DictPatterns) > 1)
			if seen[role] {
				continue
			}
			seen[role] = true
			v := func(m *capsule.Meta) *capsule.VarMeta { return &m.Groups[gi].Vars[vi] }
			name := fmt.Sprintf("g%d-v%d", gi, vi)
			if vm.Kind == capsule.NominalVar {
				add(name+"-index-width+1", func(m *capsule.Meta) { v(m).IndexWidth++ })
				add(name+"-dict-index-swap", func(m *capsule.Meta) { vm := v(m); vm.DictCapID, vm.IndexCapID = vm.IndexCapID, vm.DictCapID })
				add(name+"-seg0-count+1", func(m *capsule.Meta) { v(m).DictPatterns[0].Count++ })
				add(name+"-seg0-maxlen+1", func(m *capsule.Meta) { v(m).DictPatterns[0].MaxLen++ })
				add(name+"-seg0-maxlen-1", func(m *capsule.Meta) { v(m).DictPatterns[0].MaxLen-- })
				if len(vm.DictPatterns) > 1 {
					add(name+"-segs-swap", func(m *capsule.Meta) { dp := v(m).DictPatterns; dp[0], dp[1] = dp[1], dp[0] })
				}
				continue
			}
			if len(vm.OutRows) > 0 {
				add(name+"-outrows-shift", func(m *capsule.Meta) { v(m).OutRows[0]++ })
				add(name+"-outrows-drop", func(m *capsule.Meta) { v(m).OutRows = v(m).OutRows[1:] })
			}
			for ei, e := range vm.Pattern {
				if e.Sub >= 0 {
					add(fmt.Sprintf("%s-e%d-cap+1", name, ei), func(m *capsule.Meta) { e := &v(m).Pattern[ei]; e.CapID = (e.CapID + 1) % len(m.Capsules) })
				}
			}
		}
	}
	return muts
}

// capsuleRoles returns one capsule of each role the Reconstructor reads
// differently: a sub-variable, a vector's outlier capsule and a
// sub-variable beside it, an index and its dictionary, the block outlier
// capsule.
func capsuleRoles(m *capsule.Meta) []int {
	var ids []int
	seen := map[string]bool{}
	role := func(name string, id ...int) {
		if !seen[name] {
			seen[name] = true
			ids = append(ids, id...)
		}
	}
	for gi := range m.Groups {
		for _, vm := range m.Groups[gi].Vars {
			switch {
			case vm.Kind == capsule.NominalVar:
				role("nominal", vm.IndexCapID, vm.DictCapID)
			case len(vm.OutRows) > 0:
				for _, e := range vm.Pattern {
					if e.Sub >= 0 {
						role("ranked", vm.OutCapID, e.CapID)
					}
				}
			default:
				for _, e := range vm.Pattern {
					if e.Sub >= 0 {
						role("sub", e.CapID)
					}
				}
			}
		}
	}
	if m.OutlierCapID >= 0 {
		role("outlier", m.OutlierCapID)
	}
	return ids
}

// checkRestorePaths opens data and runs every restore path on a fresh
// store each: any failure must be corruption, and the paths must agree.
func checkRestorePaths(t *testing.T, data []byte) {
	t.Helper()
	corrupt := func(what string, err error) bool {
		t.Helper()
		if err != nil && !errors.Is(err, capsule.ErrCorrupt) {
			t.Fatalf("%s: %v, want corruption", what, err)
		}
		return err != nil
	}
	st, err := Open(data, QueryOptions{})
	if corrupt("Open", err) {
		return
	}
	raw, rawErr := st.AppendAll(nil)
	corrupt("AppendAll", rawErr)
	all, allErr := mustReopen(t, data).ReconstructAll()
	corrupt("ReconstructAll", allErr)
	one := mustReopen(t, data)
	var lineErr error
	var lines []byte
	for i := 0; i < one.NumLines() && lineErr == nil; i++ {
		var s string
		if s, lineErr = one.ReconstructLine(context.Background(), i); lineErr == nil {
			lines = append(append(lines, s...), '\n')
		}
	}
	corrupt("ReconstructLine", lineErr)
	if (rawErr == nil) != (allErr == nil) || (rawErr == nil) != (lineErr == nil) {
		t.Fatalf("AppendAll: %v; ReconstructAll: %v; ReconstructLine: %v", rawErr, allErr, lineErr)
	}
	if rawErr == nil && (!bytes.Equal(raw, lines) || len(all) != one.NumLines() || (len(all) > 0 && strings.Join(all, "\n")+"\n" != string(raw))) {
		t.Fatal("whole-block and one-line restores differ")
	}
	_, err = mustReopen(t, data).Search(context.Background(), "a OR NOT b", SearchOpts{})
	corrupt("Search (verify)", err)
}
