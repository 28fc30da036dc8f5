package archive

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"loggrep/internal/core"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
	"loggrep/internal/obsv"
	"loggrep/internal/query"
)

// attr reads one trace-level counter, 0 when the trace has none of the name.
func attr(tr *obsv.Trace, key string) int64 {
	for _, a := range tr.Data().Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}

func testOptions(blockBytes int) Options {
	o := DefaultOptions()
	o.BlockBytes = blockBytes
	o.Workers = 4
	return o
}

// TestOnDiskBytesPinned holds the writer's output still: every loggen type
// (seed 1, 4 000 lines) as one box and as a multi-block archive hashes to
// what commit bf7eea6 wrote. A format or mining change moves these on
// purpose and re-measures them; a refactor must not.
func TestOnDiskBytesPinned(t *testing.T) {
	const (
		wantBoxes    = "7f4c6310951af707888acd9ec71f63feecd67971b10d30146b5052ea435bc984"
		wantArchives = "d3695ec3a737487f9fad1e1de6f7c0ed06473124fff6ae7575593f24a95defc0"
	)
	boxes, archives := sha256.New(), sha256.New()
	for _, lt := range loggen.All() {
		block := lt.Block(1, 4000)
		boxes.Write(core.Compress(block, core.DefaultOptions()))
		arc, err := Compress(block, testOptions(128<<10))
		if err != nil {
			t.Fatal(err)
		}
		archives.Write(arc)
	}
	if got := hex.EncodeToString(boxes.Sum(nil)); got != wantBoxes {
		t.Errorf("core.Compress over all types hashes to %s, pinned %s", got, wantBoxes)
	}
	if got := hex.EncodeToString(archives.Sum(nil)); got != wantArchives {
		t.Errorf("archive.Compress over all types hashes to %s, pinned %s", got, wantArchives)
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	lt, _ := loggen.ByName("A")
	stream := lt.Block(9, 6000)
	data, err := Compress(stream, testOptions(100_000)) // several blocks
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBlocks() < 3 {
		t.Fatalf("blocks = %d, want several", a.NumBlocks())
	}
	if a.RawBytes() != len(stream) {
		t.Fatalf("raw bytes = %d, want %d", a.RawBytes(), len(stream))
	}
	want := logparse.SplitLines(stream)
	if a.NumLines() != len(want) {
		t.Fatalf("lines = %d, want %d", a.NumLines(), len(want))
	}
	got, err := a.ReconstructAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: %q != %q", i, got[i], want[i])
		}
	}
}

func TestArchiveQueryEquivalence(t *testing.T) {
	lt, _ := loggen.ByName("G")
	stream := lt.Block(4, 8000)
	lines := logparse.SplitLines(stream)
	data, err := Compress(stream, testOptions(150_000))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		lt.Query,
		"Operation:WriteChunk",
		"ERROR OR TraceId:3615*",
		"NOT INFO",
		"heartbeat AND node-7",
	}
	for _, cmd := range queries {
		for _, workers := range []int{1, 4} {
			res, err := a.Search(context.Background(), cmd, core.SearchOpts{Workers: workers})
			if err != nil {
				t.Fatalf("query %q: %v", cmd, err)
			}
			want := oracle(t, lines, cmd)
			if len(res.Lines) != len(want) {
				t.Fatalf("query %q (workers=%d): %d matches, want %d", cmd, workers, len(res.Lines), len(want))
			}
			for i := range want {
				if res.Lines[i] != want[i] || res.Entries[i] != lines[want[i]] {
					t.Fatalf("query %q: mismatch at %d", cmd, i)
				}
			}
		}
	}
}

func oracle(t *testing.T, lines []string, command string) []int {
	t.Helper()
	expr, err := query.Parse(command)
	if err != nil {
		t.Fatal(err)
	}
	var match func(e query.Expr, l string) bool
	match = func(e query.Expr, l string) bool {
		switch x := e.(type) {
		case *query.And:
			return match(x.L, l) && match(x.R, l)
		case *query.Or:
			return match(x.L, l) || match(x.R, l)
		case *query.Not:
			return !match(x.X, l)
		case *query.Search:
			return x.MatchEntry(l)
		}
		return false
	}
	var out []int
	for i, l := range lines {
		if match(expr, l) {
			out = append(out, i)
		}
	}
	return out
}

// A fragment whose character classes are absent from a block must skip the
// block without opening it.
func TestArchiveBlockStampSkipping(t *testing.T) {
	// Two very different blocks: digits-only lines, then letters-only.
	var b bytes.Buffer
	w, err := NewWriter(&b, testOptions(60_000))
	if err != nil {
		t.Fatal(err)
	}
	digits := strings.Repeat("123 456 789\n", 6000)  // > one block
	letters := strings.Repeat("alpha beta c\n", 500) // final partial block
	if _, err := w.Write([]byte(digits)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(letters)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := Open(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBlocks() < 2 {
		t.Fatalf("blocks = %d", a.NumBlocks())
	}
	// The block-skipping index would eliminate the digit blocks first;
	// turn it off so the stamp layer is what this test exercises.
	a.SetIndexEnabled(false)
	tr := obsv.NewTrace("archive-query")
	res, err := a.Search(context.Background(), "alpha", core.SearchOpts{Workers: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) != 500 {
		t.Fatalf("matches = %d, want 500", len(res.Lines))
	}
	if attr(tr, "blocks_skipped") == 0 {
		t.Fatal("no blocks skipped by block stamps")
	}
	// The digit blocks must never have been opened.
	for _, blk := range a.blocks[:a.NumBlocks()-1] {
		if blk.store != nil {
			t.Fatal("digit block was opened despite stamp mismatch")
		}
	}
}

func TestArchiveEmpty(t *testing.T) {
	data, err := Compress(nil, testOptions(1000))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBlocks() != 0 || a.NumLines() != 0 {
		t.Fatalf("empty archive: %d blocks %d lines", a.NumBlocks(), a.NumLines())
	}
	res, err := a.Search(context.Background(), "x", core.SearchOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) != 0 {
		t.Fatal("match in empty archive")
	}
}

func TestArchiveCorrupt(t *testing.T) {
	if _, err := Open(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := Open([]byte("WRONGMAG rest")); err == nil {
		t.Fatal("bad magic accepted")
	}
	data, err := Compress([]byte("hello world 1\nhello world 2\n"), testOptions(1000))
	if err != nil {
		t.Fatal(err)
	}
	// v2 contract: truncation never fails Open outright, but it must never
	// go unnoticed either — every cut before the end of the terminator
	// frame surfaces as damage. Bytes past the terminator are optional
	// index sections: losing them degrades queries to full scans, and must
	// NOT be reported as data damage.
	tailOff, _, err := IndexSectionRange(data)
	if err != nil {
		t.Fatal(err)
	}
	if tailOff < 0 || tailOff >= len(data) {
		t.Fatalf("expected index sections after the terminator (tailOff %d, len %d)", tailOff, len(data))
	}
	for cut := len(Magic); cut < tailOff; cut++ {
		a, err := Open(data[:cut])
		if err != nil {
			continue
		}
		if len(a.Damage()) == 0 && a.Verify(true) == nil {
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
	for cut := tailOff; cut < len(data); cut++ {
		a, err := Open(data[:cut])
		if err != nil {
			t.Fatalf("index-region truncation at %d failed Open: %v", cut, err)
		}
		if len(a.Damage()) != 0 || a.Verify(true) != nil {
			t.Fatalf("index-region truncation at %d misreported as data damage", cut)
		}
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Verify(true); d != nil {
		t.Fatalf("pristine archive reports damage: %v", d)
	}
}

func TestWriterAfterClose(t *testing.T) {
	var b bytes.Buffer
	w, err := NewWriter(&b, testOptions(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x\n")); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

type failingWriter struct{ after int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("disk full")
	}
	f.after--
	return len(p), nil
}

func TestWriterPropagatesIOError(t *testing.T) {
	w, err := NewWriter(&failingWriter{after: 1}, testOptions(1000))
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("some log line with text\n", 500)
	w.Write([]byte(big))
	if err := w.Close(); err == nil {
		t.Fatal("io error not propagated")
	}
}

func TestBlockCutRespectsLines(t *testing.T) {
	lt, _ := loggen.ByName("D")
	stream := lt.Block(2, 3000)
	data, err := Compress(stream, testOptions(50_000))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, blk := range a.blocks {
		total += blk.meta.numLines
	}
	if total != len(logparse.SplitLines(stream)) {
		t.Fatalf("line counts across blocks = %d", total)
	}
}

func TestArchiveEntry(t *testing.T) {
	lt, _ := loggen.ByName("S")
	stream := lt.Block(8, 4000)
	lines := logparse.SplitLines(stream)
	data, err := Compress(stream, testOptions(60_000))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []int{0, 1, 1999, len(lines) - 1} {
		got, err := a.Entry(context.Background(), line)
		if err != nil {
			t.Fatalf("Entry(%d): %v", line, err)
		}
		if got != lines[line] {
			t.Fatalf("Entry(%d) = %q, want %q", line, got, lines[line])
		}
	}
	if _, err := a.Entry(context.Background(), -1); err == nil {
		t.Fatal("negative line accepted")
	}
	if _, err := a.Entry(context.Background(), len(lines)); err == nil {
		t.Fatal("past-end line accepted")
	}
}
