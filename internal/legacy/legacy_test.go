package legacy

import (
	"bytes"
	"context"
	"errors"
	"os"
	"slices"
	"testing"

	"loggrep"
	"loggrep/internal/archive"
	"loggrep/internal/core"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
)

// fixtures are the archives retired writers wrote, checked in beside the
// raw logs they were built from: the v1 frame format (3000 lines), and v2
// frames of rev-1 boxes (commit 7abb5d0), rev-2 boxes (commit 52d28eb) and
// rev-3 boxes with an LZMA-lite directory (commit 7cad226), each from 700
// lines of loggen types A, G and S in 32 KiB blocks.
var fixtures = []string{"v1_fixture", "box1_fixture", "box2_fixture", "box3_fixture"}

func readFixture(t testing.TB, name string) (data, raw []byte) {
	t.Helper()
	data, err := os.ReadFile("../archive/testdata/" + name + ".lgrep")
	if err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile("../archive/testdata/" + name + ".log")
	if err != nil {
		t.Fatal(err)
	}
	return data, raw
}

// upgrade runs Upgrade and Verify on data and returns the current archive.
func upgrade(t *testing.T, data []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := Upgrade(data, &out); err != nil {
		t.Fatalf("Upgrade: %v", err)
	}
	if err := Verify(data, out.Bytes()); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return out.Bytes()
}

// TestReconstructFixtures: each fixture, refused by the live archive.Open
// as ErrOldFormat, restores through Restore to the raw log it was built
// from, and upgrades to a current archive whose every restore path — strict
// and salvaging Restore, ReconstructAll, deep Verify, Entry of every line —
// gives that log back.
func TestReconstructFixtures(t *testing.T) {
	for _, name := range fixtures {
		data, raw := readFixture(t, name)
		if _, err := archive.Open(data); !errors.Is(err, archive.ErrOldFormat) {
			t.Fatalf("%s: live Open: %v, want ErrOldFormat", name, err)
		}
		var restored bytes.Buffer
		if err := Restore(data, &restored); err != nil || !bytes.Equal(restored.Bytes(), raw) {
			t.Fatalf("%s: Restore: %v, equal to the raw log %v", name, err, bytes.Equal(restored.Bytes(), raw))
		}
		a, err := archive.Open(upgrade(t, data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Format() != "archive-v2" || a.RawBytes() != len(raw) {
			t.Fatalf("%s: upgraded to %s of %d raw bytes, want archive-v2 of %d", name, a.Format(), a.RawBytes(), len(raw))
		}
		for _, strict := range []bool{false, true} {
			var out bytes.Buffer
			if d, err := a.Restore(&out, strict); err != nil || d != nil || !bytes.Equal(out.Bytes(), raw) {
				t.Fatalf("%s: Restore(strict %v): %v, damage %v", name, strict, err, d)
			}
		}
		if d := a.Verify(true); d != nil {
			t.Fatalf("%s: Verify: %v", name, d)
		}
		lines := logparse.SplitLines(raw)
		if got, err := a.ReconstructAll(); err != nil || !slices.Equal(got, lines) {
			t.Fatalf("%s: ReconstructAll: %v", name, err)
		}
		for i, want := range lines {
			if got, err := a.Entry(context.Background(), i); err != nil || got != want {
				t.Fatalf("%s: Entry(%d) = %q, %v; want %q", name, i, got, err, want)
			}
		}
	}
}

// fixtureQueries are the queries the fixtures' compat tests ran: a broad
// and a negated one, each loggen type's Table-1 query alone and beside
// ERROR, and the ones loggrepd's replay test ran.
func fixtureQueries() []string {
	qs := []string{"ERROR", "NOT INFO", "Operation:WriteChunk", "Operation:ReadChunk AND SATADiskId:7"}
	for _, name := range []string{"A", "G", "S"} {
		lt, _ := loggen.ByName(name)
		qs = append(qs, lt.Query, "ERROR OR "+lt.Query)
	}
	return qs
}

// checkAnswers runs every fixture query on the archive data at one and at
// several workers and compares each answer with loggrep.RawQuery's over
// raw: the same lines and entries, no damage.
func checkAnswers(t *testing.T, name string, data, raw []byte) {
	t.Helper()
	a, err := archive.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range fixtureQueries() {
		want, wantEntries, err := loggrep.RawQuery(raw, cmd)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			res, err := a.Search(context.Background(), cmd, core.SearchOpts{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %q: %v", name, cmd, err)
			}
			if len(res.Damaged) != 0 || res.Partial || !slices.Equal(res.Lines, want) || !slices.Equal(res.Entries, wantEntries) {
				t.Fatalf("%s: %q at %d workers: %d matches (damage %v, partial %v), want %d",
					name, cmd, workers, len(res.Lines), res.Damaged, res.Partial, len(want))
			}
		}
	}
}

// TestUpgradeFixtureQueries: every query the compat tests ran on a fixture
// answers on its upgraded archive as loggrep.RawQuery does over the raw log.
func TestUpgradeFixtureQueries(t *testing.T) {
	for _, name := range fixtures {
		data, raw := readFixture(t, name)
		checkAnswers(t, name, upgrade(t, data), raw)
	}
}

// TestUpgradeMixedArchive: an archive whose frames alternate retired and
// current boxes — rev-2 and rev-3 boxes, or rev-3 boxes with LZMA-lite and
// DEFLATE directories — is ErrOldFormat to the live reader, and upgrades
// to an archive that restores its stream byte for byte and answers every
// fixture query as RawQuery does.
func TestUpgradeMixedArchive(t *testing.T) {
	for _, tc := range []struct{ name, fixture, old string }{
		{"rev2+rev3", "box2_fixture", "LGRPBOX2"},
		{"lzma-dir+deflate-dir", "box3_fixture", "LGRPBOX3\x00"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fixture, raw := readFixture(t, tc.fixture)
			opts := archive.DefaultOptions()
			opts.BlockBytes = 32 << 10 // the fixture's cut
			fresh, err := archive.Compress(raw, opts)
			if err != nil {
				t.Fatal(err)
			}
			mixed := spliceFrames(t, fresh, fixture)
			if o, n := bytes.Count(mixed, []byte(tc.old)), bytes.Count(mixed, []byte("LGRPBOX3\x01")); o != 3 || n != 3 {
				t.Fatalf("spliced archive holds %d old and %d current boxes, want 3 of each", o, n)
			}
			if _, err := archive.Open(mixed); !errors.Is(err, archive.ErrOldFormat) {
				t.Fatalf("live Open: %v, want ErrOldFormat", err)
			}
			up := upgrade(t, mixed)
			var out bytes.Buffer
			if a, err := archive.Open(up); err != nil {
				t.Fatal(err)
			} else if _, err := a.Restore(&out, true); err != nil || !bytes.Equal(out.Bytes(), raw) {
				t.Fatalf("upgraded Restore: %v, equal %v", err, bytes.Equal(out.Bytes(), raw))
			}
			checkAnswers(t, tc.name, up, raw)
		})
	}
}

// spliceFrames interleaves two archives of one stream cut into the same
// blocks: even frames, the terminator and the index tail from a, odd
// frames from b. Frame headers carry absolute line offsets and their own
// checksums, so frames move between archives verbatim.
func spliceFrames(t *testing.T, a, b []byte) []byte {
	t.Helper()
	fa, err := archive.ScanFrames(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := archive.ScanFrames(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(fa) != len(fb) {
		t.Fatalf("%d frames against %d: the archives are cut differently", len(fa), len(fb))
	}
	out := []byte(archive.Magic)
	for i, f := range fa[:len(fa)-1] {
		src := a
		if i%2 == 1 {
			src, f = b, fb[i]
		}
		if f.Lines != fa[i].Lines {
			t.Fatalf("frame %d: %d lines against %d", i, f.Lines, fa[i].Lines)
		}
		out = append(out, src[f.HeaderOff:f.PayloadOff+f.PayloadLen]...)
	}
	return append(out, a[fa[len(fa)-1].HeaderOff:]...)
}

// TestUpgradeDamagedFails: a v2 fixture with one payload byte flipped fails
// Restore and Upgrade with the checksum error, and a truncated v1 fixture
// fails them as corrupt; neither is salvaged.
func TestUpgradeDamagedFails(t *testing.T) {
	box2, _ := readFixture(t, "box2_fixture")
	frames, err := archive.ScanFrames(box2)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(box2)
	flipped[frames[2].PayloadOff+frames[2].PayloadLen/2] ^= 0x08
	v1, _ := readFixture(t, "v1_fixture")
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"payload flipped": {flipped, archive.ErrChecksum},
		"v1 truncated":    {v1[:len(v1)/2], ErrCorrupt},
	} {
		if err := Restore(tc.data, &bytes.Buffer{}); !errors.Is(err, tc.want) {
			t.Errorf("%s: Restore: %v, want %v", name, err, tc.want)
		}
		if err := Upgrade(tc.data, &bytes.Buffer{}); !errors.Is(err, tc.want) {
			t.Errorf("%s: Upgrade: %v, want %v", name, err, tc.want)
		}
	}
}

// TestVerifyCatchesDifference: Verify fails when the upgraded archive
// restores other text than the input, or less or more of it.
func TestVerifyCatchesDifference(t *testing.T) {
	data, raw := readFixture(t, "box1_fixture")
	for name, text := range map[string][]byte{
		"one byte changed": append(bytes.Clone(raw[:100]), append([]byte{raw[100] ^ 1}, raw[101:]...)...),
		"last line lost":   raw[:bytes.LastIndexByte(raw[:len(raw)-1], '\n')+1],
		"a line more":      append(bytes.Clone(raw), "extra line\n"...),
	} {
		other, err := archive.Compress(text, archive.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(data, other); err == nil {
			t.Errorf("%s: Verify accepted it", name)
		}
	}
}

// FuzzUpgrade: over the fixtures and bit-flipped copies of them, an upgrade
// either fails cleanly or writes a current archive that the live reader
// opens and whose strict Restore gives exactly what Restore gives for the
// input — and Verify agrees.
func FuzzUpgrade(f *testing.F) {
	for _, name := range fixtures {
		data, _ := readFixture(f, name)
		f.Add(data)
		for _, at := range []int{len(data) / 2, len(data) / 7, 40} {
			flipped := bytes.Clone(data)
			flipped[at] ^= 0x04
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var up bytes.Buffer
		if err := Upgrade(data, &up); err != nil {
			return
		}
		var want bytes.Buffer
		if err := Restore(data, &want); err != nil {
			t.Fatalf("Upgrade succeeded, Restore failed: %v", err)
		}
		a, err := archive.Open(up.Bytes())
		if err != nil {
			t.Fatalf("upgraded archive: %v", err)
		}
		var got bytes.Buffer
		if _, err := a.Restore(&got, true); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("upgraded archive restores %d bytes (%v), Restore %d", got.Len(), err, want.Len())
		}
		if err := Verify(data, up.Bytes()); err != nil {
			t.Fatalf("Verify: %v", err)
		}
	})
}
