package archive

import (
	"bytes"
	"context"
	"os"
	"testing"

	"loggrep/internal/capsule"
	"loggrep/internal/core"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

// TestV1FixtureCompat opens a checked-in archive written by the v1
// (pre-checksum) format and verifies it answers queries and reconstructs
// identically to the raw log it was built from. The fixture bytes were
// produced by the v1 writer before the v2 format landed; they must keep
// opening forever.
func TestV1FixtureCompat(t *testing.T) {
	checkFixture(t, "v1_fixture", MagicV1, 4, []string{"ERROR", "Operation:WriteChunk", "NOT INFO"})
}

// TestBox1FixtureCompat does the same for a v2-frame archive whose blocks
// are rev-1 CapsuleBoxes (LGRPBOX1: line maps inside the LZMA'd metadata),
// written by commit 7abb5d0 — the last whose writer emitted them — from 700
// lines each of loggen types A, G and S in 32 KiB blocks. The queries are
// those types' Table-1 queries plus a broad and a negated one.
func TestBox1FixtureCompat(t *testing.T) {
	queries := []string{"ERROR", "NOT INFO"}
	for _, name := range []string{"A", "G", "S"} {
		lt, _ := loggen.ByName(name)
		queries = append(queries, lt.Query)
	}
	data := checkFixture(t, "box1_fixture", Magic, 6, queries)
	if n := bytes.Count(data, []byte("LGRPBOX1")); n != 6 || bytes.Contains(data, []byte(capsule.BoxMagic)) {
		t.Fatalf("fixture holds %d rev-1 boxes (want 6) or a current-revision one", n)
	}
}

// TestBox2FixtureCompat does the same for a v2-frame archive whose blocks
// are rev-2 CapsuleBoxes (LGRPBOX2: Rice line maps, every section
// LZMA-lite), written by commit 52d28eb — the last whose writer emitted
// them — from 700 lines each of loggen types A, G and S (seed 1) in 32 KiB
// blocks.
func TestBox2FixtureCompat(t *testing.T) {
	queries := []string{"ERROR", "NOT INFO"}
	for _, name := range []string{"A", "G", "S"} {
		lt, _ := loggen.ByName(name)
		queries = append(queries, lt.Query)
	}
	data := checkFixture(t, "box2_fixture", Magic, 6, queries)
	if n := bytes.Count(data, []byte("LGRPBOX2")); n != 6 || bytes.Contains(data, []byte(capsule.BoxMagic)) {
		t.Fatalf("fixture holds %d rev-2 boxes (want 6) or a current-revision one", n)
	}
}

// TestBox3FixtureCompat does the same for a v2-frame archive whose blocks
// are rev-3 CapsuleBoxes with an LZMA-lite directory (LGRPBOX3, directory
// codec byte 0, DEFLATE capsules), written by commit 7cad226 — the last
// whose writer coded the directory with LZMA-lite — from 700 lines each of
// loggen types A, G and S (seed 1) in 32 KiB blocks.
func TestBox3FixtureCompat(t *testing.T) {
	queries := []string{"ERROR", "NOT INFO"}
	for _, name := range []string{"A", "G", "S"} {
		lt, _ := loggen.ByName(name)
		queries = append(queries, lt.Query)
	}
	data := checkFixture(t, "box3_fixture", Magic, 6, queries)
	if n := countBoxes(t, data, lzmaDirBox); n != 6 || bytes.Contains(data, []byte("LGRPBOX2")) {
		t.Fatalf("fixture holds %d rev-3 boxes with an LZMA-lite directory (want 6) or an older one", n)
	}
}

// lzmaDirBox and deflateDirBox tell rev-3 boxes apart by the codec byte
// after the magic.
func lzmaDirBox(box []byte) bool    { return dirCodecIs(box, capsule.CodecLZMA) }
func deflateDirBox(box []byte) bool { return dirCodecIs(box, capsule.CodecDeflate) }

func dirCodecIs(box []byte, c capsule.Codec) bool {
	n := len(capsule.BoxMagic)
	return bytes.HasPrefix(box, []byte(capsule.BoxMagic)) && len(box) > n && capsule.Codec(box[n]) == c
}

// countBoxes counts the frames of an archive whose box is is's kind.
func countBoxes(t *testing.T, data []byte, is func(box []byte) bool) int {
	t.Helper()
	frames, err := ScanFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range frames {
		if is(data[f.PayloadOff : f.PayloadOff+f.PayloadLen]) {
			n++
		}
	}
	return n
}

// checkFixture opens testdata/<name>.lgrep, checks it against the raw log
// beside it, and returns the archive bytes.
func checkFixture(t *testing.T, name, magic string, minBlocks int, queries []string) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + name + ".log")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("testdata/" + name + ".lgrep")
	if err != nil {
		t.Fatal(err)
	}
	if !hasMagic(data, magic) {
		t.Fatalf("fixture is not a %s archive (magic %q)", magic, data[:8])
	}
	if !IsArchive(data) {
		t.Fatal("IsArchive rejects the fixture")
	}
	lines := logparse.SplitLines(raw)

	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLines() != len(lines) {
		t.Fatalf("lines = %d, want %d", a.NumLines(), len(lines))
	}
	if a.NumBlocks() < minBlocks {
		t.Fatalf("fixture has %d blocks, want >= %d", a.NumBlocks(), minBlocks)
	}
	if a.RawBytes() != len(raw) {
		t.Fatalf("raw bytes = %d, want %d", a.RawBytes(), len(raw))
	}
	if d := a.Verify(true); d != nil {
		t.Fatalf("pristine fixture reports damage: %v", d)
	}

	for _, cmd := range queries {
		res, err := a.Search(context.Background(), cmd, core.SearchOpts{Workers: 2})
		if err != nil {
			t.Fatalf("query %q: %v", cmd, err)
		}
		if len(res.Damaged) != 0 {
			t.Fatalf("query %q reports damage on pristine fixture: %v", cmd, res.Damaged)
		}
		want := oracle(t, lines, cmd)
		if len(res.Lines) != len(want) {
			t.Fatalf("query %q: %d matches, want %d", cmd, len(res.Lines), len(want))
		}
		for i := range want {
			if res.Lines[i] != want[i] || res.Entries[i] != lines[want[i]] {
				t.Fatalf("query %q: mismatch at %d", cmd, i)
			}
		}
	}

	got, err := a.ReconstructAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Fatalf("line %d: %q != %q", i, got[i], lines[i])
		}
	}
	return data
}
