package loggrep_test

import (
	"context"
	"testing"

	"loggrep"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

// TestSoakLargeBlock exercises the full pipeline at a scale closer to real
// blocks: 500k entries (~45 MB), compress, verify a needle query and spot
// reconstruction. Skipped with -short.
func TestSoakLargeBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("large block soak")
	}
	lt, _ := loggen.ByName("G")
	block := lt.Block(7, 500_000)
	t.Logf("raw block: %d bytes", len(block))

	data := loggrep.Compress(block, loggrep.DefaultOptions())
	ratio := float64(len(block)) / float64(len(data))
	t.Logf("compressed: %d bytes (%.2fx)", len(data), ratio)
	if ratio < 5 {
		t.Errorf("soak ratio %.2f implausibly low", ratio)
	}

	st, err := loggrep.Open(data, loggrep.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Search(context.Background(), lt.Query, loggrep.SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) == 0 {
		t.Fatal("needle query matched nothing at scale")
	}
	t.Logf("query: %d matches, %d capsules decompressed", len(res.Lines), res.Decompressions)

	// Spot-check reconstruction across the block.
	lines := logparse.SplitLines(block)
	for _, i := range []int{0, 123_457, 250_000, 499_999} {
		got, err := st.ReconstructLine(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if got != lines[i] {
			t.Fatalf("line %d: %q != %q", i, got, lines[i])
		}
	}
}
