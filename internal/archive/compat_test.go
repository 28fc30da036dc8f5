package archive

import (
	"os"
	"testing"

	"loggrep/internal/logparse"
)

// TestV1FixtureCompat opens a checked-in archive written by the v1
// (pre-checksum) format and verifies it answers queries and reconstructs
// identically to the raw log it was built from. The fixture bytes were
// produced by the v1 writer before the v2 format landed; they must keep
// opening forever.
func TestV1FixtureCompat(t *testing.T) {
	raw, err := os.ReadFile("testdata/v1_fixture.log")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("testdata/v1_fixture.lgrep")
	if err != nil {
		t.Fatal(err)
	}
	if !hasMagic(data, MagicV1) {
		t.Fatalf("fixture is not a v1 archive (magic %q)", data[:8])
	}
	if !IsArchive(data) {
		t.Fatal("IsArchive rejects the v1 fixture")
	}
	lines := logparse.SplitLines(raw)

	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLines() != len(lines) {
		t.Fatalf("lines = %d, want %d", a.NumLines(), len(lines))
	}
	if a.NumBlocks() < 4 {
		t.Fatalf("fixture has %d blocks, want >= 4", a.NumBlocks())
	}
	if a.RawBytes() != len(raw) {
		t.Fatalf("raw bytes = %d, want %d", a.RawBytes(), len(raw))
	}
	if d := a.Verify(true); d != nil {
		t.Fatalf("pristine v1 fixture reports damage: %v", d)
	}

	for _, cmd := range []string{"ERROR", "Operation:WriteChunk", "NOT INFO"} {
		res, err := a.Query(cmd, 2)
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
}
