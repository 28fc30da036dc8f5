package archive

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"loggrep/internal/core"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

// TestWriterManySmallWrites drip-feeds the writer one fragment at a time
// — including writes that split lines mid-byte — and checks the archive
// reconstructs the stream exactly. The worker pool sees maximum churn
// because every block is tiny.
func TestWriterManySmallWrites(t *testing.T) {
	lt, _ := loggen.ByName("A")
	stream := lt.Block(2, 1200)

	var buf bytes.Buffer
	aw, err := NewWriter(&buf, testOptions(2_000)) // many tiny blocks
	if err != nil {
		t.Fatal(err)
	}
	// Fragment sizes cycle through awkward primes so writes rarely align
	// with line boundaries.
	sizes := []int{1, 7, 3, 31, 13, 127, 5, 251}
	for off, i := 0, 0; off < len(stream); i++ {
		n := sizes[i%len(sizes)]
		if off+n > len(stream) {
			n = len(stream) - off
		}
		if _, err := aw.Write(stream[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := Open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Verify(true); d != nil {
		t.Fatalf("fresh archive damaged: %v", d)
	}
	got, err := a.ReconstructAll()
	if err != nil {
		t.Fatal(err)
	}
	want := logparse.SplitLines(stream)
	if len(got) != len(want) {
		t.Fatalf("%d lines reconstructed, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: %q != %q", i, got[i], want[i])
		}
	}
	if a.NumBlocks() < 10 {
		t.Fatalf("only %d blocks — block cutting not exercised", a.NumBlocks())
	}
}

// TestWriterOddBlockCuts sweeps BlockBytes through values that interact
// badly with line lengths (primes, one byte more than a line, etc.) and
// checks every cut produces a clean archive with consistent line
// accounting.
func TestWriterOddBlockCuts(t *testing.T) {
	lt, _ := loggen.ByName("P")
	stream := lt.Block(1, 600)
	want := logparse.SplitLines(stream)
	for _, blockBytes := range []int{1, 37, 101, 997, 4097, len(stream) - 1, len(stream), len(stream) + 1} {
		data, err := Compress(stream, testOptions(blockBytes))
		if err != nil {
			t.Fatalf("BlockBytes=%d: %v", blockBytes, err)
		}
		a, err := Open(data)
		if err != nil {
			t.Fatalf("BlockBytes=%d: open: %v", blockBytes, err)
		}
		if a.NumLines() != len(want) {
			t.Fatalf("BlockBytes=%d: %d lines, want %d", blockBytes, a.NumLines(), len(want))
		}
		if a.RawBytes() != len(stream) {
			t.Fatalf("BlockBytes=%d: raw %d, want %d", blockBytes, a.RawBytes(), len(stream))
		}
		got, err := a.ReconstructAll()
		if err != nil {
			t.Fatalf("BlockBytes=%d: %v", blockBytes, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("BlockBytes=%d: line %d differs", blockBytes, i)
			}
		}
	}
}

// TestWriterEntryLargerThanBlock feeds single lines far bigger than
// BlockBytes: the cutter must never split a line, so each oversized entry
// becomes its own block and survives the round trip.
func TestWriterEntryLargerThanBlock(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&sb, "entry %d payload %s\n", i, strings.Repeat("x", 3000+i*100))
	}
	stream := []byte(sb.String())
	data, err := Compress(stream, testOptions(1_000)) // every line > BlockBytes
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLines() != 12 {
		t.Fatalf("%d lines, want 12", a.NumLines())
	}
	if a.NumBlocks() != 12 {
		t.Fatalf("%d blocks, want one per oversized entry", a.NumBlocks())
	}
	want := logparse.SplitLines(stream)
	for i := range want {
		got, err := a.Entry(context.Background(), i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("entry %d: %d bytes != %d bytes", i, len(got), len(want[i]))
		}
	}
}

// TestParallelQueryStress hammers one Archive from many goroutines with
// mixed queries and entry lookups. The lazy per-block store open races
// with itself here; run under -race to check the latching.
func TestParallelQueryStress(t *testing.T) {
	lt, _ := loggen.ByName("G")
	stream := lt.Block(3, 3000)
	data, err := Compress(stream, testOptions(30_000))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBlocks() < 4 {
		t.Fatalf("only %d blocks", a.NumBlocks())
	}
	queries := []string{lt.Query, "NOT INFO", "Operation:WriteChunk", "nomatchword"}

	// Reference results computed single-threaded before the race starts.
	want := make(map[string]int)
	for _, q := range queries {
		res, err := a.Search(context.Background(), q, core.SearchOpts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Damaged) != 0 {
			t.Fatalf("query %q on pristine archive reports damage", q)
		}
		want[q] = len(res.Lines)
	}
	if want[lt.Query] == 0 {
		t.Fatal("reference query matched nothing")
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine opens its own Archive view half the time, and
			// shares the common one otherwise — both must be race-free.
			view := a
			if g%2 == 0 {
				v, err := Open(data)
				if err != nil {
					errc <- err
					return
				}
				view = v
			}
			for i := 0; i < 8; i++ {
				q := queries[(g+i)%len(queries)]
				res, err := view.Search(context.Background(), q, core.SearchOpts{Workers: 1 + ((g + i) % 4)})
				if err != nil {
					errc <- fmt.Errorf("query %q: %v", q, err)
					return
				}
				if len(res.Lines) != want[q] {
					errc <- fmt.Errorf("query %q: %d matches, want %d", q, len(res.Lines), want[q])
					return
				}
				line := (g*131 + i*17) % view.NumLines()
				if _, err := view.Entry(context.Background(), line); err != nil {
					errc <- fmt.Errorf("entry %d: %v", line, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
