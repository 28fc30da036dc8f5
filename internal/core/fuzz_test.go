package core

import (
	"context"
	"testing"

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

// FuzzOpen: arbitrary bytes must never panic Store construction or simple
// queries.
func FuzzOpen(f *testing.F) {
	f.Add(Compress([]byte("a b c\n"), DefaultOptions()))
	f.Add([]byte("LGRPBOX1 garbage"))
	f.Add([]byte("LGRPBOX2 garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Open(data, QueryOptions{})
		if err != nil {
			return
		}
		st.Search(context.Background(), "a AND b", SearchOpts{})
		st.Search(context.Background(), "read OR NOT state:", SearchOpts{})
		st.ReconstructAll()
	})
}
