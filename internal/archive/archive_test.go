package archive

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"loggrep/internal/core"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
	"loggrep/internal/obsv"
	"loggrep/internal/query"
	"loggrep/internal/rtpattern"
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
// what the rev-3 (LGRPBOX3) writer wrote once it coded the directory with
// DEFLATE as well as the capsules. A format or mining change moves these on
// purpose and re-measures them; a refactor must not.
func TestOnDiskBytesPinned(t *testing.T) {
	const (
		wantBoxes    = "af6db7cadd9905f4570e54c3ca7d9e7aa0b0f9f4c9d18e282a0b27fead062a8e"
		wantArchives = "84af361065f926464f15c61eb2fafd4cd0980d9558e0f3453c5d9ee51e0043d0"
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

// blockStamp stops classifying bytes once every class is seen; the stamp
// must equal the mask of every byte and the longest line all the same.
func TestBlockStamp(t *testing.T) {
	lt, _ := loggen.ByName("A")
	for _, blk := range []string{
		"", "\n", "\n\n", "abc", "abc\n", "a\n\nxyzw\n", "9F\nzz", "Gg1aA!\n" + strings.Repeat("q", 300),
		"Gg1aA!\n0\n" + strings.Repeat("é", 80) + "\n", string(lt.Block(1, 500)),
	} {
		var want rtpattern.Stamp
		for _, line := range strings.Split(blk, "\n") {
			want.MaxLen = max(want.MaxLen, len(line))
		}
		want.TypeMask = rtpattern.TypeMaskOf(blk)
		if got := blockStamp([]byte(blk)); got != want {
			t.Errorf("blockStamp(%.20q) = %+v, want %+v", blk, got, want)
		}
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

// TestArchiveQueryEquivalence: an archive query returns the same whole
// Result at every worker count — lines, entries, matches, damage, partial
// flag and reason, decompressions — on a pristine archive, one with a
// payload-flipped block and one with a damaged frame header, for queries
// and counts alike; the pristine answers are the oracle's; a budget-cut
// query at any worker count is a flagged subset of the full answer.
func TestArchiveQueryEquivalence(t *testing.T) {
	lt, _ := loggen.ByName("G")
	stream := lt.Block(4, 8000)
	data, err := Compress(stream, testOptions(150_000))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("fresh", func(t *testing.T) {
		checkQueryEquivalence(t, logparse.SplitLines(stream), data, []string{
			lt.Query,
			"Operation:WriteChunk",
			"ERROR OR TraceId:3615*",
			"NOT INFO",
			"heartbeat AND node-7",
		})
	})
}

// checkQueryEquivalence is TestArchiveQueryEquivalence over one archive of
// lines; queries[0] must need more than two decompressions.
func checkQueryEquivalence(t *testing.T, lines []string, data []byte, queries []string) {
	t.Helper()
	frames, err := ScanFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 5 {
		t.Fatalf("%d frames, want several blocks and a terminator", len(frames))
	}
	payloadFlipped := bytes.Clone(data)
	payloadFlipped[frames[1].PayloadOff+frames[1].PayloadLen/2] ^= 0x40
	headerDamaged := bytes.Clone(data)
	headerDamaged[frames[2].HeaderOff+4] ^= 0x01
	inputs := []struct {
		name string
		data []byte
	}{{"pristine", data}, {"payload-flipped", payloadFlipped}, {"header-damaged", headerDamaged}}
	// search opens the input afresh, so every run starts from cold caches
	// and decompresses what the first run of its query does.
	search := func(data []byte, cmd string, o core.SearchOpts) *Result {
		t.Helper()
		a, err := Open(data)
		if err != nil {
			t.Fatal(err)
		}
		if o.Budget != nil {
			a.index = nil // the budget must bite, not the index
		}
		res, err := a.Search(context.Background(), cmd, o)
		if err != nil {
			t.Fatalf("query %q: %v", cmd, err)
		}
		return res
	}
	for _, in := range inputs {
		for _, cmd := range queries {
			for _, countOnly := range []bool{false, true} {
				serial := search(in.data, cmd, core.SearchOpts{Workers: 1, CountOnly: countOnly})
				if in.name == "pristine" {
					want := oracle(t, lines, cmd)
					if serial.Matches != len(want) || len(serial.Damaged) != 0 || serial.Partial {
						t.Fatalf("query %q: %d matches, damage %v, partial %v; want %d, none, false", cmd, serial.Matches, serial.Damaged, serial.Partial, len(want))
					}
					for i := range serial.Lines {
						if serial.Lines[i] != want[i] || serial.Entries[i] != lines[want[i]] {
							t.Fatalf("query %q: mismatch at %d", cmd, i)
						}
					}
				} else if len(serial.Damaged) == 0 {
					t.Fatalf("%s, query %q: no damage reported", in.name, cmd)
				}
				for _, workers := range []int{0, 2, 4, 8} {
					got := search(in.data, cmd, core.SearchOpts{Workers: workers, CountOnly: countOnly})
					if !sameResult(got, serial) {
						t.Fatalf("%s, query %q (count %v), workers %d: %+v; workers 1: %+v", in.name, cmd, countOnly, workers, got, serial)
					}
				}
			}
		}
	}
	full := search(data, queries[0], core.SearchOpts{Workers: 1})
	inFull := map[int]string{}
	for i, ln := range full.Lines {
		inFull[ln] = full.Entries[i]
	}
	for _, workers := range []int{1, 0, 2, 8} {
		cut := search(data, queries[0], core.SearchOpts{Workers: workers, Budget: core.NewBudgetState(core.Budget{MaxDecompressions: 2})})
		if !cut.Partial || !strings.Contains(cut.PartialReason, "budget") || len(cut.Lines) >= len(full.Lines) {
			t.Fatalf("workers %d: budget-cut query partial=%v %q, %d of %d lines; want a flagged strict subset", workers, cut.Partial, cut.PartialReason, len(cut.Lines), len(full.Lines))
		}
		for i, ln := range cut.Lines {
			if e, ok := inFull[ln]; !ok || e != cut.Entries[i] {
				t.Fatalf("workers %d: budget-cut query returned line %d %q, not in the full answer", workers, ln, cut.Entries[i])
			}
		}
	}
}

// sameResult compares two Results field by field, damage by its reading.
func sameResult(a, b *Result) bool {
	damage := func(ds []BlockError) string {
		var s strings.Builder
		for _, d := range ds {
			fmt.Fprintf(&s, "[%d %d+%d %v]", d.Block, d.FirstLine, d.NumLines, d.Err)
		}
		return s.String()
	}
	return reflect.DeepEqual(a.Lines, b.Lines) && reflect.DeepEqual(a.Entries, b.Entries) &&
		a.Matches == b.Matches && a.Partial == b.Partial && a.PartialReason == b.PartialReason &&
		a.Decompressions == b.Decompressions && damage(a.Damaged) == damage(b.Damaged)
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
	// drop it so the stamp layer is what this test exercises.
	a.index = nil
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

// TestBlockOpenMetric: loggrep_archive_block_open_ns observes each block's
// cold open once — checksum and CapsuleBox open — and nothing on a block
// whose store is already open.
func TestBlockOpenMetric(t *testing.T) {
	lt, _ := loggen.ByName("A")
	data, err := Compress(lt.Block(2, 3000), testOptions(40_000))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	before := mArchiveBlockOpenNS.Count()
	for pass := range 2 {
		if _, err := a.ReconstructAll(); err != nil {
			t.Fatal(err)
		}
		want := int64(a.NumBlocks()) // every open is the first pass's
		if got := mArchiveBlockOpenNS.Count() - before; got != want {
			t.Fatalf("pass %d: %d block opens observed, want %d", pass, got, want)
		}
	}
}
