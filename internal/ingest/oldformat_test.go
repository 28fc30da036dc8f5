package ingest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loggrep/internal/archive"
)

// TestReplayRefusesOldSegments: a sealed segment an older loggrepd wrote in
// a retired format fails startup with an error naming its path and
// `loggrep upgrade`. It is neither quarantined nor removed — not even when
// its pre-seal WAL survived, which would otherwise replace a broken
// archive — and nothing in the stream directory changes.
func TestReplayRefusesOldSegments(t *testing.T) {
	dir := t.TempDir()
	streamDir := filepath.Join(dir, "acme", "app")
	if err := os.MkdirAll(streamDir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for name, fixture := range map[string]string{"seg-00000001.lgrep": "box1_fixture", "seg-00000002.lgrep": "v1_fixture"} {
		data, err := os.ReadFile(filepath.Join("..", "archive", "testdata", fixture+".lgrep"))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	files["wal-00000001.wal"] = encodeWALRecord([]byte("acked line\n"))
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(streamDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, _, err := Open(testConfig(dir))
	if err == nil {
		m.Close()
		t.Fatal("replay served a retired-format segment")
	}
	seg := filepath.Join(streamDir, "seg-00000001.lgrep")
	if !errors.Is(err, archive.ErrOldFormat) || !strings.Contains(err.Error(), seg) || !strings.Contains(err.Error(), "loggrep upgrade") {
		t.Fatalf("Open: %v; want ErrOldFormat naming %s and loggrep upgrade", err, seg)
	}
	ents, err := os.ReadDir(streamDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(files) {
		t.Fatalf("stream directory holds %d files, want the %d it had", len(ents), len(files))
	}
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(streamDir, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed (%v)", name, err)
		}
	}
}
