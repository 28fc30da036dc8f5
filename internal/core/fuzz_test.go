package core

import (
	"context"
	"errors"
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
// queries or reconstruction, and on a box that opens the whole-block and
// one-line restores agree: the same lines, or both fail, with corruption.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Open(data, QueryOptions{})
		if err != nil {
			return
		}
		st.Search(context.Background(), "a AND b", SearchOpts{})
		st.Search(context.Background(), "read OR NOT state:", SearchOpts{})
		st.ReconstructAll()

		all, allErr := mustReopen(t, data).ReconstructAll()
		if allErr != nil && !errors.Is(allErr, capsule.ErrCorrupt) {
			t.Fatalf("ReconstructAll: %v, want corruption", allErr)
		}
		one := mustReopen(t, data)
		var lineErr error
		for i := 0; i < one.NumLines() && lineErr == nil; i++ {
			var s string
			if s, lineErr = one.ReconstructLine(context.Background(), i); lineErr == nil && allErr == nil && s != all[i] {
				t.Fatalf("line %d: ReconstructLine %q, ReconstructAll %q", i, s, all[i])
			}
		}
		if lineErr != nil && !errors.Is(lineErr, capsule.ErrCorrupt) {
			t.Fatalf("ReconstructLine: %v, want corruption", lineErr)
		}
		if (allErr == nil) != (lineErr == nil) {
			t.Fatalf("ReconstructAll: %v; ReconstructLine: %v", allErr, lineErr)
		}
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
