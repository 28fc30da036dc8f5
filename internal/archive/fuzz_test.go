package archive

import (
	"context"
	"os"
	"sort"
	"testing"

	"loggrep/internal/capsule"
	"loggrep/internal/core"
	"loggrep/internal/loggen"
)

// fuzzSeedArchives builds small v2 archives and damaged variants of them
// and adds the committed v1 fixture and bare boxes of both revisions — the
// corpus every archive fuzz target starts from.
func fuzzSeedArchives(f *testing.F) [][]byte {
	f.Helper()
	lt, _ := loggen.ByName("A")
	stream := lt.Block(1, 150)
	opts := testOptions(3_000) // several tiny blocks
	opts.Workers = 1
	v2, err := Compress(stream, opts)
	if err != nil {
		f.Fatal(err)
	}
	opts.NoIndex = true
	noIx, err := Compress(stream, opts)
	if err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile("testdata/v1_fixture.lgrep")
	if err != nil {
		f.Fatal(err)
	}
	// Bare CapsuleBoxes, which Open serves as one-block archives: one of
	// the current revision, one of the previous (the fixture's first block).
	box2 := core.Compress(stream, opts.Core)
	fixture, err := os.ReadFile("testdata/box1_fixture.lgrep")
	if err != nil {
		f.Fatal(err)
	}
	frames, err := ScanFrames(fixture)
	if err != nil {
		f.Fatal(err)
	}
	box1 := fixture[frames[0].PayloadOff : frames[0].PayloadOff+frames[0].PayloadLen]
	flipped := append([]byte(nil), v2...)
	flipped[len(flipped)/3] ^= 0x10
	headerHit := append([]byte(nil), v2...)
	headerHit[len(Magic)+4] ^= 0x01
	indexHit := append([]byte(nil), v2...)
	if tailOff, _, err := IndexSectionRange(indexHit); err == nil && tailOff >= 0 && tailOff < len(indexHit) {
		indexHit[tailOff+(len(indexHit)-tailOff)/2] ^= 0x20
	}
	return [][]byte{
		v2, // carries index sections after the terminator
		v1,
		noIx,           // v2 without index sections
		v2[:len(v2)/2], // truncated mid-stream
		v2[:len(v2)-1], // terminator clipped
		flipped,        // payload or header bit flip
		headerHit,      // first frame header bit flip
		indexHit,       // index tail bit flip
		box2,
		box1,
		box2[:len(box2)/2], // truncated box
		[]byte(Magic),
		[]byte(MagicV1),
		[]byte(capsule.BoxMagic),
		nil,
	}
}

// FuzzOpenArchive: arbitrary bytes must never panic Open or the lazy
// per-block verification behind Verify, and whatever opens must expose a
// consistent line space.
func FuzzOpenArchive(f *testing.F) {
	for _, seed := range fuzzSeedArchives(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Open(data)
		if err != nil {
			return
		}
		if a.NumLines() < 0 {
			t.Fatalf("negative line count %d", a.NumLines())
		}
		prevEnd := 0
		for _, b := range a.blocks {
			if b.lineOff < prevEnd {
				t.Fatalf("blocks overlap or unsorted at line %d", b.lineOff)
			}
			prevEnd = b.lineOff + b.meta.numLines
			if prevEnd > a.NumLines() {
				t.Fatalf("block ends at %d beyond NumLines %d", prevEnd, a.NumLines())
			}
		}
		a.Verify(false)
		if a.NumLines() > 0 {
			a.Entry(context.Background(), 0)
			a.Entry(context.Background(), a.NumLines()-1)
		}
	})
}

// FuzzArchiveQuery: a query over arbitrary archive bytes must never panic
// or return an inconsistent result, whatever the corruption.
func FuzzArchiveQuery(f *testing.F) {
	seeds := fuzzSeedArchives(f)
	for _, cmd := range []string{"ERROR", "req AND NOT state:503", "a*b"} {
		for _, seed := range seeds {
			f.Add(seed, cmd, uint8(2))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, cmd string, workers uint8) {
		a, err := Open(data)
		if err != nil {
			return
		}
		res, err := a.Search(context.Background(), cmd, core.SearchOpts{Workers: int(workers % 5)})
		if err != nil {
			return // unparsable command, or a decode fault in a bare box (no frame to quarantine around)
		}
		if len(res.Lines) != len(res.Entries) {
			t.Fatalf("%d lines but %d entries", len(res.Lines), len(res.Entries))
		}
		if !sort.IntsAreSorted(res.Lines) {
			t.Fatal("result lines not in global order")
		}
		for _, l := range res.Lines {
			if l < 0 || l >= a.NumLines() {
				t.Fatalf("match line %d outside [0,%d)", l, a.NumLines())
			}
		}
	})
}
