package archive

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"loggrep/internal/core"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

// TestWriterManySmallWrites drip-feeds the writer one fragment at a time
// — including writes that split lines mid-byte — and checks the archive
// is byte for byte what one whole-stream Compress writes: the writer cuts
// blocks while it fills, and the cuts must not depend on how the stream is
// split. Every block is tiny, so blocks are cut and queued at a high rate.
func TestWriterManySmallWrites(t *testing.T) {
	lt, _ := loggen.ByName("A")
	stream := lt.Block(2, 1200)
	// Fragment sizes cycle through awkward primes so writes rarely align
	// with line boundaries.
	primes := []int{1, 7, 3, 31, 13, 127, 5, 251}
	for _, tc := range []struct {
		name       string
		stream     []byte
		blockBytes int
		sizes      []int
		minBlocks  int
	}{
		{"primes", stream, 2_000, primes, 10},
		{"entry-larger-than-block", oversizedStream(), 1_000, primes, 12},
		{"no-trailing-newline", stream[:len(stream)-1], 2_000, primes, 10},
		// Every byte of several block boundaries arrives on its own.
		{"bytewise", stream[:10_000], 2_000, []int{1}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions(tc.blockBytes)
			var buf bytes.Buffer
			aw, err := NewWriter(&buf, opts)
			if err != nil {
				t.Fatal(err)
			}
			for off, i := 0, 0; off < len(tc.stream); i++ {
				n := min(tc.sizes[i%len(tc.sizes)], len(tc.stream)-off)
				if _, err := aw.Write(tc.stream[off : off+n]); err != nil {
					t.Fatal(err)
				}
				off += n
			}
			if err := aw.Close(); err != nil {
				t.Fatal(err)
			}
			want, err := Compress(tc.stream, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("fragmented writes give %d bytes, one Compress %d: the cuts moved", buf.Len(), len(want))
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
			wantLines := logparse.SplitLines(tc.stream)
			if len(got) != len(wantLines) {
				t.Fatalf("%d lines reconstructed, want %d", len(got), len(wantLines))
			}
			for i := range wantLines {
				if got[i] != wantLines[i] {
					t.Fatalf("line %d: %q != %q", i, got[i], wantLines[i])
				}
			}
			if a.NumBlocks() < tc.minBlocks {
				t.Fatalf("only %d blocks — block cutting not exercised", a.NumBlocks())
			}
		})
	}
}

// stallingSink passes the archive magic through and then blocks its first
// frame write until release is closed.
type stallingSink struct {
	buf     bytes.Buffer
	writes  int
	entered chan struct{}
	release chan struct{}
}

func (s *stallingSink) Write(p []byte) (int, error) {
	if s.writes++; s.writes == 2 {
		close(s.entered)
		<-s.release
	}
	return s.buf.Write(p)
}

// countingReader counts the bytes read through it and returns at most max
// bytes a read.
type countingReader struct {
	r   io.Reader
	max int
	n   atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p[:min(len(p), c.max)])
	c.n.Add(int64(n))
	return n, err
}

// TestWriterBoundedInFlight stalls the sink on the first frame and streams
// far more than Workers blocks in: the writer must stop taking input once
// Workers blocks compress and one more is full, so what it has accepted is
// at most (Workers + 1) × BlockBytes plus the read in progress, never a
// queue of blocks behind them. Released, it writes what Compress writes.
func TestWriterBoundedInFlight(t *testing.T) {
	lt, _ := loggen.ByName("G")
	opts := testOptions(8_000)
	stream := lt.Block(3, 4_000)
	if len(stream) < 10*opts.Workers*opts.BlockBytes {
		t.Fatalf("stream of %d bytes is too short for the bound to bite", len(stream))
	}
	longest := 0
	for _, line := range bytes.SplitAfter(stream, []byte{'\n'}) {
		longest = max(longest, len(line))
	}

	sink := &stallingSink{entered: make(chan struct{}), release: make(chan struct{})}
	aw, err := NewWriter(sink, opts)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingReader{r: bytes.NewReader(stream), max: longest}
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(aw, src)
		if err == nil {
			err = aw.Close()
		}
		done <- err
	}()
	<-sink.entered
	// Whatever still runs beside the stalled frame write has had its
	// chance once the count holds still for a while.
	accepted := src.n.Load()
	for still := 0; still < 20; {
		time.Sleep(10 * time.Millisecond)
		if n := src.n.Load(); n != accepted {
			accepted, still = n, 0
		} else {
			still++
		}
	}
	close(sink.release)
	if bound := int64((opts.Workers+1)*opts.BlockBytes + longest); accepted > bound {
		t.Errorf("writer accepted %d bytes with its sink stalled, bound (Workers+1)×BlockBytes + one line = %d", accepted, bound)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	want, err := Compress(stream, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.buf.Bytes(), want) {
		t.Fatal("stalled-then-released writer differs from Compress")
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
	stream := oversizedStream()
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

// oversizedStream is twelve lines of 3 000–4 100 bytes each.
func oversizedStream() []byte {
	var sb strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&sb, "entry %d payload %s\n", i, strings.Repeat("x", 3000+i*100))
	}
	return []byte(sb.String())
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

// writeCounter is a sink that counts its Write calls.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriterGrowsNoBufferAfterFirstBlock: after a cut the next block's
// buffer holds a whole block, so the writes that fill it never move it.
// A cut falls at the last newline, so the block cut is almost always
// shorter than BlockBytes; a buffer sized like it would be re-allocated
// and copied by the fill that overflows it.
func TestWriterGrowsNoBufferAfterFirstBlock(t *testing.T) {
	lt, _ := loggen.ByName("A")
	stream := lt.Block(4, 3_000)
	opts := testOptions(16_000)
	sink := &writeCounter{}
	aw, err := NewWriter(sink, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The magic is one write and every frame two: header, then box.
	cuts := func() int { return (sink.writes-1)/2 + len(aw.queue) }
	prevCuts, prevBuf := 0, unsafe.SliceData(aw.buf)
	for off := 0; off < len(stream); {
		n := min(997, len(stream)-off)
		if _, err := aw.Write(stream[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
		c, buf := cuts(), unsafe.SliceData(aw.buf)
		if c > 0 && cap(aw.buf) < opts.BlockBytes {
			t.Fatalf("after %d blocks the buffer holds %d bytes, not a block of %d", c, cap(aw.buf), opts.BlockBytes)
		}
		if c > 0 && c == prevCuts && buf != prevBuf {
			t.Fatalf("the write ending at byte %d moved block %d's buffer", off, c+1)
		}
		prevCuts, prevBuf = c, buf
	}
	if c := cuts(); c < 10 {
		t.Fatalf("the stream cut into %d blocks, too few to show growth", c)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := Compress(stream, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), want) {
		t.Fatal("archive written in pieces differs from the whole-stream Compress")
	}
}
