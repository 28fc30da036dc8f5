package archive

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"loggrep/internal/capsule"
	"loggrep/internal/core"
	"loggrep/internal/loggen"
)

// The checked-in fixtures are archives earlier writers wrote, in formats
// the live reader no longer opens. internal/legacy reads them, and its
// tests check that each upgrades to a current archive that answers as the
// raw log beside it does. Here, Open must refuse each one cleanly: the
// whole input is ErrOldFormat, whose message names `loggrep upgrade` —
// never damage, never a partial answer.

// TestV1FixtureCompat: the v1 (pre-checksum) frame format, written by the
// v1 writer before the v2 format landed.
func TestV1FixtureCompat(t *testing.T) {
	data := checkOldFixture(t, "v1_fixture")
	if IsArchive(data) {
		t.Fatal("IsArchive accepts a v1 archive")
	}
	if _, err := ScanFrames(data); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("ScanFrames: %v, want ErrOldFormat", err)
	}
	if _, _, err := IndexSectionRange(data); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("IndexSectionRange: %v, want ErrOldFormat", err)
	}
}

// TestBox1FixtureCompat: a v2-frame archive whose blocks are rev-1
// CapsuleBoxes (LGRPBOX1: line maps inside the LZMA'd metadata), written by
// commit 7abb5d0 from 700 lines each of loggen types A, G and S in 32 KiB
// blocks. Each of its blocks, bare, is refused too.
func TestBox1FixtureCompat(t *testing.T) {
	checkOldBoxes(t, checkOldFixture(t, "box1_fixture"), "LGRPBOX1")
}

// TestBox2FixtureCompat: rev-2 CapsuleBoxes (LGRPBOX2: Rice line maps,
// every section LZMA-lite), written by commit 52d28eb.
func TestBox2FixtureCompat(t *testing.T) {
	checkOldBoxes(t, checkOldFixture(t, "box2_fixture"), "LGRPBOX2")
}

// TestBox3FixtureCompat: rev-3 CapsuleBoxes with an LZMA-lite directory
// (LGRPBOX3, directory codec byte 0, DEFLATE capsules), written by commit
// 7cad226.
func TestBox3FixtureCompat(t *testing.T) {
	checkOldBoxes(t, checkOldFixture(t, "box3_fixture"), capsule.BoxMagic+"\x00")
}

// checkOldFixture reads testdata/<name>.lgrep, checks that Open refuses it
// as ErrOldFormat, and returns its bytes.
func checkOldFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name + ".lgrep")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if !errors.Is(err, ErrOldFormat) || a != nil {
		t.Fatalf("Open: %v, want ErrOldFormat", err)
	}
	if !strings.Contains(err.Error(), "loggrep upgrade") || errors.Is(err, ErrCorrupt) || errors.Is(err, capsule.ErrCorrupt) {
		t.Fatalf("Open: %q names no upgrade or reads as damage", err)
	}
	return data
}

// checkOldBoxes checks that every block of the v2 archive data begins with
// prefix, that its frame checksum holds, and that each box, bare, is
// ErrOldFormat from Open and from core.Open.
func checkOldBoxes(t *testing.T, data []byte, prefix string) {
	t.Helper()
	frames, err := ScanFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 7 {
		t.Fatalf("%d frames, want 6 blocks and a terminator", len(frames))
	}
	for _, f := range frames[:len(frames)-1] {
		box := data[f.PayloadOff : f.PayloadOff+f.PayloadLen]
		if !bytes.HasPrefix(box, []byte(prefix)) || !f.PayloadIntact(box) {
			t.Fatalf("frame at %d: prefix %q, payload intact %v", f.HeaderOff, box[:len(capsule.BoxPrefix)], f.PayloadIntact(box))
		}
		if _, err := Open(box); !errors.Is(err, ErrOldFormat) {
			t.Fatalf("bare box: Open: %v, want ErrOldFormat", err)
		}
		if _, err := core.Open(box, core.QueryOptions{}); !errors.Is(err, ErrOldFormat) {
			t.Fatalf("bare box: core.Open: %v, want ErrOldFormat", err)
		}
	}
}

// TestOldPrefixBehindBadChecksumIsDamage: Open tells a retired box from a
// damaged one by the frame's payload checksum, not by the box's first
// bytes. A bit flip that makes one current frame's box read as a retired
// revision — LGRPBOX3 as LGRPBOX2, or its directory codec byte 1 as 0 —
// leaves the archive opening; a query reports that one block as checksum
// damage — an archive answer's partial flag is its Damaged list — and
// every other block answers.
func TestOldPrefixBehindBadChecksumIsDamage(t *testing.T) {
	lt, _ := loggen.ByName("A")
	data, err := Compress(lt.Block(3, 4000), testOptions(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := ScanFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 4 {
		t.Fatalf("%d frames, want several blocks", len(frames))
	}
	pristine, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pristine.Search(context.Background(), "ERROR", core.SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	f := frames[1]
	for name, flip := range map[string]struct {
		off  int
		from byte
		to   byte
	}{
		"magic LGRPBOX3 as LGRPBOX2": {len(capsule.BoxMagic) - 1, '3', '2'},
		"directory codec 1 as 0":     {len(capsule.BoxMagic), 1, 0},
	} {
		t.Run(name, func(t *testing.T) {
			bad := bytes.Clone(data)
			at := f.PayloadOff + flip.off
			if bad[at] != flip.from {
				t.Fatalf("byte %d is %#x, want %#x", flip.off, bad[at], flip.from)
			}
			bad[at] = flip.to
			if !errors.Is(capsule.CheckPrefix(bad[f.PayloadOff:]), ErrOldFormat) {
				t.Fatal("the flipped box does not begin as a retired revision")
			}
			a, err := Open(bad)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			res, err := a.Search(context.Background(), "ERROR", core.SearchOpts{})
			if err != nil {
				t.Fatalf("Search: %v", err)
			}
			if len(res.Damaged) != 1 || !errors.Is(res.Damaged[0].Err, ErrChecksum) || errors.Is(res.Damaged[0].Err, ErrOldFormat) {
				t.Fatalf("damage %v, want block 1 alone as ErrChecksum", res.Damaged)
			}
			d := res.Damaged[0]
			if d.FirstLine != a.blocks[1].lineOff || d.NumLines != f.Lines {
				t.Fatalf("damage %+v, want the lines of block 1 (%d lines)", d, f.Lines)
			}
			kept := 0
			for _, l := range want.Lines {
				if l < d.FirstLine || l >= d.FirstLine+d.NumLines {
					kept++
				}
			}
			if res.Matches != kept {
				t.Fatalf("%d matches, want the %d outside the damaged block", res.Matches, kept)
			}
		})
	}
}
