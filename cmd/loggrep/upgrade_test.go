package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loggrep"
	"loggrep/internal/archive"
)

// fixture reads a retired-format archive checked in under
// internal/archive/testdata and the raw log beside it.
func fixture(t *testing.T, name string) (data, raw []byte) {
	t.Helper()
	base := filepath.Join("..", "..", "internal", "archive", "testdata", name)
	data, err := os.ReadFile(base + ".lgrep")
	if err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(base + ".log")
	if err != nil {
		t.Fatal(err)
	}
	return data, raw
}

// TestCLIUpgrade: `loggrep upgrade` rewrites each retired fixture, out of
// place and in place, as a current archive that `cat` restores to the raw
// log and `query` answers on as loggrep.RawQuery does; every command but
// upgrade refuses the original, naming upgrade. A current-format input,
// archive or bare box, comes out byte for byte as it went in.
func TestCLIUpgrade(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	for _, name := range []string{"v1_fixture", "box1_fixture", "box2_fixture", "box3_fixture"} {
		data, raw := fixture(t, name)
		in := filepath.Join(dir, name+".lgrep")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if msg := runFail(t, bin, "cat", in); !strings.Contains(msg, "loggrep upgrade") {
			t.Fatalf("%s: cat of the original says %q, naming no upgrade", name, msg)
		}
		out := filepath.Join(dir, name+".new.lgrep")
		run(t, bin, "upgrade", in, out)
		if got, _ := os.ReadFile(in); !bytes.Equal(got, data) {
			t.Fatalf("%s: an out-of-place upgrade changed its input", name)
		}
		run(t, bin, "upgrade", in, in)
		upgraded, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		inPlace, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(inPlace, upgraded) {
			t.Fatalf("%s: in place and out of place upgrades differ", name)
		}
		if restored, _ := run(t, bin, "cat", "-strict", in); restored != string(raw) {
			t.Fatalf("%s: the upgraded archive restores %d bytes unlike the %d-byte log", name, len(restored), len(raw))
		}
		lines, entries, err := loggrep.RawQuery(raw, "NOT INFO")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := run(t, bin, "query", "-strict", in, "NOT INFO")
		var want strings.Builder
		for i, l := range lines {
			fmt.Fprintf(&want, "%d:%s\n", l+1, entries[i])
		}
		if got != want.String() {
			t.Fatalf("%s: query answers %d bytes unlike RawQuery's %d", name, len(got), want.Len())
		}
		assertNoTemp(t, dir)
	}

	// Current inputs pass through unchanged.
	raw := []byte(strings.Repeat("T134 bk.FF.13 read state: SUC#1604\n", 200))
	arc, err := archive.Compress(raw, archive.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"archive": arc, "box": loggrep.Compress(raw, loggrep.DefaultOptions())} {
		in, out := filepath.Join(dir, name+".cur"), filepath.Join(dir, name+".out")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if msg, _ := run(t, bin, "upgrade", in, out); !strings.Contains(msg, "copied unchanged") {
			t.Fatalf("%s: upgrade says %q", name, msg)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: upgrade of a current input changed it (%v)", name, err)
		}
	}
}

// TestCLIUpgradeDamagedLeavesNothing: a retired archive with one payload
// byte flipped fails the upgrade, out of place and in place, with the
// checksum error; no temp file is left, no output is written, and an input
// upgraded in place stays as it was.
func TestCLIUpgradeDamagedLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	data, _ := fixture(t, "box2_fixture")
	frames, err := archive.ScanFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(data)
	bad[frames[3].PayloadOff+frames[3].PayloadLen/2] ^= 0x20
	in := filepath.Join(dir, "bad.lgrep")
	if err := os.WriteFile(in, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.lgrep")
	if msg := runFail(t, bin, "upgrade", in, out); !strings.Contains(msg, "checksum") {
		t.Fatalf("upgrade of a damaged input says %q", msg)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a failed upgrade wrote its output (%v)", err)
	}
	runFail(t, bin, "upgrade", in, in)
	if got, _ := os.ReadFile(in); !bytes.Equal(got, bad) {
		t.Fatal("a failed in-place upgrade changed its input")
	}
	assertNoTemp(t, dir)
}

// assertNoTemp fails if dir holds a temp file replaceFile left behind.
func assertNoTemp(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("%s left behind", e.Name())
		}
	}
}
