package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func chunkedOptions() Options {
	o := DefaultOptions()
	o.ChunkBytes = 4 << 10
	return o
}

func TestChunkedRoundTripAndQueries(t *testing.T) {
	lines := genBlock(33, 3000)
	block := makeBlock(lines...)
	st, want := mustOpen(t, block, chunkedOptions())
	got, err := st.ReconstructAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: %q != %q", i, got[i], want[i])
		}
	}
	st2, _ := mustOpen(t, block, chunkedOptions())
	for _, q := range testQueries {
		checkQuery(t, st2, lines, q)
	}
}

// Reconstructing a few clustered rows of a chunked box must decompress far
// fewer bytes than the unchunked box (which pulls whole capsules).
func TestChunkedReconstructTouchesFewChunks(t *testing.T) {
	var lines []string
	for i := 0; i < 20000; i++ {
		lines = append(lines, fmt.Sprintf("req id:%016X from host%03d latency %dus", i*2654435761, i%40, i%9999))
	}
	block := makeBlock(lines...)

	count := func(opts Options) int {
		st, _ := mustOpen(t, block, opts)
		// An incident: 20 adjacent entries reconstructed.
		for line := 500; line < 520; line++ {
			if _, err := st.ReconstructLine(context.Background(), line); err != nil {
				t.Fatal(err)
			}
		}
		return st.Decompressions()
	}
	whole := count(DefaultOptions())
	chunked := count(chunkedOptions())
	t.Logf("decompressions: whole=%d chunked=%d", whole, chunked)
	// Both count "payload fetches"; the chunked ones are ~4KB each while
	// the whole ones span the full capsule, so compare decompressed bytes.
	bytesOf := func(opts Options) int {
		data := Compress(block, opts)
		st, err := Open(data, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for line := 500; line < 520; line++ {
			st.ReconstructLine(context.Background(), line)
		}
		total := 0
		for _, p := range st.box.CacheSnapshot() {
			total += len(p)
		}
		for _, sr := range st.chunkSearchers {
			total += sr.Bytes()
		}
		return total
	}
	wb := bytesOf(DefaultOptions())
	cb := bytesOf(chunkedOptions())
	t.Logf("decompressed bytes: whole=%d chunked=%d", wb, cb)
	if cb*4 > wb {
		t.Fatalf("chunked reconstruction decompressed %d bytes, want far less than %d", cb, wb)
	}
}

func TestChunkedVarWidthOutliers(t *testing.T) {
	// Force many outliers in one real vector so the outlier capsule is
	// big enough to chunk, then reconstruct across chunk boundaries.
	var lines []string
	for i := 0; i < 4000; i++ {
		if i%3 == 0 {
			lines = append(lines, "evt "+strings.Repeat("x", 20+i%50)+fmt.Sprintf("%d", i))
		} else {
			lines = append(lines, fmt.Sprintf("evt blk_%08d", i))
		}
	}
	block := makeBlock(lines...)
	opts := chunkedOptions()
	opts.ChunkBytes = 1 << 10
	st, want := mustOpen(t, block, opts)
	got, err := st.ReconstructAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: %q != %q", i, got[i], want[i])
		}
	}
}
