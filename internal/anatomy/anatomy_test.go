package anatomy

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"loggrep/internal/archive"
	"loggrep/internal/core"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestInspectBoxAccounting checks the two accounting invariants on freshly
// compressed boxes of every generator class: the packed column partitions
// the file exactly, and the raw column re-derives the original block size.
func TestInspectBoxAccounting(t *testing.T) {
	for _, lt := range loggen.All() {
		raw := lt.Block(3, 2000)
		box := core.Compress(raw, core.Options{Parse: logparse.DefaultOptions()})
		rep, err := Inspect(box)
		if err != nil {
			t.Fatalf("%s: Inspect: %v", lt.Name, err)
		}
		if got := rep.PackedTotal(); got != len(box) {
			t.Errorf("%s: packed total %d, file is %d bytes", lt.Name, got, len(box))
		}
		// Raw attribution must cover the block: every byte is a template
		// literal, newline, pattern literal, or stored value. Allow 1% for
		// the final line's missing newline and trimmed trailing bytes.
		if got, want := rep.RawTotal(), len(raw); got < want*99/100 || got > want*101/100 {
			t.Errorf("%s: raw total %d, block is %d bytes", lt.Name, got, want)
		}
		if rep.NumLines != bytes.Count(raw, []byte{'\n'}) {
			t.Errorf("%s: lines %d, want %d", lt.Name, rep.NumLines, bytes.Count(raw, []byte{'\n'}))
		}
		for _, c := range rep.Blocks[0].Box.Capsules {
			if c.EntropyBits < 0 || c.EntropyBits > 8 {
				t.Errorf("%s: capsule %d entropy %v out of range", lt.Name, c.ID, c.EntropyBits)
			}
			if c.Selectivity < 0 || c.Selectivity > 1 {
				t.Errorf("%s: capsule %d selectivity %v out of range", lt.Name, c.ID, c.Selectivity)
			}
			if c.PaddingBytes < 0 || c.ValueBytes < 0 {
				t.Errorf("%s: capsule %d negative byte count: %+v", lt.Name, c.ID, c)
			}
		}
	}
}

// TestInspectArchiveFixture pins the anatomy of the committed v1 fixture
// archive: packed bytes sum to the exact file size, raw bytes match the
// frame metadata within 1%, and the rendered table matches the golden.
func TestInspectArchiveFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "archive", "testdata", "v1_fixture.lgrep"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Format != "archive-v1" {
		t.Fatalf("format %q", rep.Format)
	}
	if got := rep.PackedTotal(); got != len(data) {
		t.Errorf("packed total %d, file is %d bytes", got, len(data))
	}
	if got, want := rep.RawTotal(), rep.RawBytes; got < want*99/100 || got > want*101/100 {
		t.Errorf("raw total %d, frame metadata says %d", got, want)
	}
	if rep.DamagedRegions != 0 {
		t.Errorf("fixture reports %d damaged regions", rep.DamagedRegions)
	}

	// The JSON form must round-trip and keep the invariant.
	var back Report
	j, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(j, &back); err != nil {
		t.Fatal(err)
	}
	if back.PackedTotal() != len(data) {
		t.Errorf("JSON round-trip lost packed accounting")
	}

	golden := filepath.Join("testdata", "v1_fixture_stats.golden")
	got := rep.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("stats table drifted from golden (run `go test ./internal/anatomy -update` if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestInspectArchiveIndexAccounting proves the packed-byte partition stays
// exact with the optional index sections present: the index gets its own
// stage, and even after a section is damaged (its bytes migrating from the
// index stage to framing overhead) every file byte is still accounted for
// exactly once.
func TestInspectArchiveIndexAccounting(t *testing.T) {
	lt, ok := loggen.ByName("G")
	if !ok {
		t.Fatal("loggen class G missing")
	}
	raw := lt.Block(9, 3000)
	opts := archive.DefaultOptions()
	opts.BlockBytes = len(raw) / 4
	arc, err := archive.Compress(raw, opts)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := Inspect(arc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Index == nil {
		t.Fatal("indexed archive reports no index stats")
	}
	if rep.Index.BloomBytes == 0 || rep.Index.PostingsBytes == 0 || rep.Index.Damaged != 0 {
		t.Fatalf("unexpected index stats on a fresh archive: %+v", rep.Index)
	}
	var indexStage int
	for _, s := range rep.Stages {
		if s.Stage == "index" {
			indexStage = s.PackedBytes
		}
	}
	if want := rep.Index.BloomBytes + rep.Index.PostingsBytes; indexStage != want {
		t.Fatalf("index stage %d bytes, section stats say %d", indexStage, want)
	}
	if got := rep.PackedTotal(); got != len(arc) {
		t.Fatalf("packed total %d, file is %d bytes", got, len(arc))
	}

	// Damage one index section: its bytes fall out of the index stage and
	// into framing overhead, but the partition must stay exact.
	tailOff, sections, err := archive.IndexSectionRange(arc)
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) == 0 {
		t.Fatal("no index sections located")
	}
	mutated := append([]byte(nil), arc...)
	mutated[tailOff+sections[0].Off+18] ^= 0x10 // first payload byte
	drep, err := Inspect(mutated)
	if err != nil {
		t.Fatal(err)
	}
	if drep.Index == nil || drep.Index.Damaged != 1 {
		t.Fatalf("damaged section not reported: %+v", drep.Index)
	}
	if got := drep.PackedTotal(); got != len(mutated) {
		t.Fatalf("packed total %d after index damage, file is %d bytes", got, len(mutated))
	}
}

// TestInspectRejectsGarbage keeps Inspect a clean error on non-LogGrep data.
func TestInspectRejectsGarbage(t *testing.T) {
	if _, err := Inspect([]byte("not a box")); err == nil {
		t.Fatal("expected error")
	}
}

// TestInspectArchiveRoundTrip compresses a multi-block archive in-process
// and checks block-level accounting plus group/capsule consistency.
func TestInspectArchiveRoundTrip(t *testing.T) {
	lt, ok := loggen.ByName("A")
	if !ok {
		t.Fatal("loggen class A missing")
	}
	raw := lt.Block(7, 4000)
	opts := archive.DefaultOptions()
	opts.BlockBytes = len(raw) / 4
	arc, err := archive.Compress(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Inspect(arc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Blocks) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(rep.Blocks))
	}
	if got := rep.PackedTotal(); got != len(arc) {
		t.Errorf("packed total %d, file is %d bytes", got, len(arc))
	}
	if got, want := rep.RawTotal(), len(raw); got < want*99/100 || got > want*101/100 {
		t.Errorf("raw total %d, input was %d bytes", got, want)
	}
	for _, blk := range rep.Blocks {
		if blk.Error != "" {
			t.Fatalf("block %d unreadable: %s", blk.Index, blk.Error)
		}
		for _, g := range blk.Box.Groups {
			if g.Rows <= 0 || g.Template == "" {
				t.Errorf("block %d group %d degenerate: %+v", blk.Index, g.Index, g)
			}
		}
	}
}

// TestInspectRev1Box: a bare box of the previous format revision inspects
// as a box, like a current one — its raw size re-derived from its capsules,
// no block stamp — not as an archive holding it.
func TestInspectRev1Box(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "archive", "testdata", "box1_fixture.lgrep"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := archive.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	bi := a.BlockInfos()[0]
	rep, err := Inspect(bi.Box)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Format != "box" || rep.NumLines != bi.NumLines || len(rep.Blocks) != 1 || rep.Blocks[0].Stamp != "" {
		t.Fatalf("rev-1 box inspects as %s, %d lines, %d blocks, stamp %q; want a box of %d lines and no stamp",
			rep.Format, rep.NumLines, len(rep.Blocks), rep.Blocks[0].Stamp, bi.NumLines)
	}
	if got := rep.PackedTotal(); got != len(bi.Box) {
		t.Errorf("packed total %d, box is %d bytes", got, len(bi.Box))
	}
	if rep.RawBytes == 0 || rep.RawBytes != rep.Blocks[0].Box.RawAccounted {
		t.Errorf("raw bytes %d, want the box's accounted %d", rep.RawBytes, rep.Blocks[0].Box.RawAccounted)
	}
	if got, want := rep.RawTotal(), bi.RawBytes; got < want*99/100 || got > want*101/100 {
		t.Errorf("raw column %d, the frame says the block was %d bytes", got, want)
	}
}
