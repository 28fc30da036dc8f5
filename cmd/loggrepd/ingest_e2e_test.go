package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"loggrep"
)

// startDaemon launches a freshly-built loggrepd with the given extra args
// and returns its base URL, the running command, its buffered stderr, and
// a scanner positioned after the "listening on" line.
func startDaemon(t *testing.T, bin string, args ...string) (string, *exec.Cmd, *bytes.Buffer, []string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-flightrec=false"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	var addr string
	var preamble []string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			addr = rest
			break
		}
		preamble = append(preamble, line)
	}
	if addr == "" {
		t.Fatalf("no listen line; stderr:\n%s", stderr.String())
	}
	go io.Copy(io.Discard, stdout)
	return "http://" + addr, cmd, &stderr, preamble
}

// TestLoggrepdIngestE2E is the ingest acceptance path at process level:
// POST batches to a live daemon, SIGTERM it mid-stream, restart on the
// same directory, and prove the replay summary plus a query over the
// recovered stream account for every acknowledged line; then force a seal
// and verify the sealed segment with the loggrep CLI.
func TestLoggrepdIngestE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs a daemon")
	}
	dir := t.TempDir()
	daemon := filepath.Join(dir, "loggrepd")
	if out, err := exec.Command("go", "build", "-o", daemon, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build loggrepd: %v\n%s", err, out)
	}
	cli := filepath.Join(dir, "loggrep")
	if out, err := exec.Command("go", "build", "-o", cli, "../loggrep").CombinedOutput(); err != nil {
		t.Fatalf("go build loggrep: %v\n%s", err, out)
	}
	ingestDir := filepath.Join(dir, "ingest")

	// Generation 1: ingest acknowledged batches, then SIGTERM before any
	// seal (thresholds far away), leaving only WAL segments behind.
	base, cmd, stderr, _ := startDaemon(t, daemon,
		"-ingest", "-ingest-dir", ingestDir,
		"-ingest-seal-mb", "1024", "-ingest-seal-age", "1h")
	total := 0
	for batch := 0; batch < 5; batch++ {
		var b strings.Builder
		for i := 0; i < 200; i++ {
			fmt.Fprintf(&b, "gen1 batch=%d line=%03d status=%d\n", batch, i, 200+i%7)
			total++
		}
		resp, err := http.Post(base+"/ingest?tenant=acme&stream=app", "text/plain", strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		var ack struct {
			Accepted int `json:"accepted"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || ack.Accepted != 200 {
			t.Fatalf("batch %d: status %d accepted %d", batch, resp.StatusCode, ack.Accepted)
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gen1 exit: %v\nstderr:\n%s", err, stderr.String())
	}

	// Generation 2: same directory. The startup banner must report the
	// replayed WAL state, and a query must return every acknowledged line.
	base, cmd, stderr, preamble := startDaemon(t, daemon,
		"-ingest", "-ingest-dir", ingestDir,
		"-ingest-seal-mb", "1024", "-ingest-seal-age", "1h")
	banner := strings.Join(preamble, "\n")
	if !strings.Contains(banner, "ingest enabled") ||
		!strings.Contains(banner, "replayed 1 stream(s)") ||
		!strings.Contains(banner, fmt.Sprintf("(%d lines)", total)) {
		t.Fatalf("replay banner wrong:\n%s", banner)
	}
	var q struct {
		Matches int   `json:"matches"`
		Lines   []int `json:"lines"`
	}
	getInto(t, base+"/v1/query?source=acme/app&q=gen1", &q)
	if q.Matches != total {
		t.Fatalf("replayed query matches = %d, want %d", q.Matches, total)
	}
	for i, ln := range q.Lines {
		if ln != i {
			t.Fatalf("line %d numbered %d after replay", i, ln)
		}
	}

	// Ingest more lines after replay, force a seal, and verify the sealed
	// segment is a well-formed archive per the loggrep CLI.
	resp, err := http.Post(base+"/ingest?tenant=acme&stream=app", "text/plain",
		strings.NewReader("gen2 after replay\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gen2 ingest: %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/ingest/seal?tenant=acme&stream=app", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seal: %d", resp.StatusCode)
	}
	getInto(t, base+"/v1/query?source=acme/app&q=gen1+OR+gen2", &q)
	if q.Matches != total+1 {
		t.Fatalf("post-seal matches = %d, want %d", q.Matches, total+1)
	}

	segs, err := filepath.Glob(filepath.Join(ingestDir, "acme", "app", "seg-*.lgrep"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no sealed segments: %v %v", segs, err)
	}
	wals, _ := filepath.Glob(filepath.Join(ingestDir, "acme", "app", "wal-*.wal"))
	if len(wals) != 0 {
		t.Fatalf("WALs survived a full seal: %v", wals)
	}
	for _, seg := range segs {
		out, err := exec.Command(cli, "verify", "-deep", seg).CombinedOutput()
		if err != nil {
			t.Fatalf("loggrep verify %s: %v\n%s", seg, err, out)
		}
		// The CLI queries the sealed segment directly, outside the daemon.
		out, err = exec.Command(cli, "query", seg, "gen1 OR gen2").CombinedOutput()
		if err != nil {
			t.Fatalf("loggrep query %s: %v\n%s", seg, err, out)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gen2 exit: %v\nstderr:\n%s", err, stderr.String())
	}

	// Generation 3: replay over sealed segments only — zero WALs, full
	// history still queryable.
	base, _, _, preamble = startDaemon(t, daemon,
		"-ingest", "-ingest-dir", ingestDir)
	banner = strings.Join(preamble, "\n")
	if !strings.Contains(banner, "0 WAL segment(s) (0 lines)") {
		t.Fatalf("gen3 banner should report no WALs:\n%s", banner)
	}
	getInto(t, base+"/v1/query?source=acme/app&q=gen1+OR+gen2", &q)
	if q.Matches != total+1 {
		t.Fatalf("gen3 matches = %d, want %d", q.Matches, total+1)
	}
}

func getInto(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestLoggrepdServesRev1Segments: an ingest directory sealed by an older
// loggrepd — seg-N.lgrep archives whose blocks are rev-1 CapsuleBoxes, here
// two copies of the fixture commit 7abb5d0 wrote — replays and answers
// exactly what grep over the raw lines answers, untouched on disk.
func TestLoggrepdServesRev1Segments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs a daemon")
	}
	dir := t.TempDir()
	daemon := filepath.Join(dir, "loggrepd")
	if out, err := exec.Command("go", "build", "-o", daemon, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build loggrepd: %v\n%s", err, out)
	}
	fixture := filepath.Join("..", "..", "internal", "archive", "testdata", "box1_fixture")
	seg, err := os.ReadFile(fixture + ".lgrep")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(fixture + ".log")
	if err != nil {
		t.Fatal(err)
	}
	streamDir := filepath.Join(dir, "ingest", "acme", "app")
	if err := os.MkdirAll(streamDir, 0o755); err != nil {
		t.Fatal(err)
	}
	segs := []string{filepath.Join(streamDir, "seg-00000001.lgrep"), filepath.Join(streamDir, "seg-00000002.lgrep")}
	for _, p := range segs {
		if err := os.WriteFile(p, seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	base, _, _, preamble := startDaemon(t, daemon, "-ingest", "-ingest-dir", filepath.Join(dir, "ingest"))
	if banner := strings.Join(preamble, "\n"); !strings.Contains(banner, "2 sealed") {
		t.Fatalf("replay banner does not report the two sealed segments:\n%s", banner)
	}
	perSeg := bytes.Count(raw, []byte("\n"))
	for _, cmd := range []string{"ERROR", "Operation:ReadChunk AND SATADiskId:7", "NOT INFO"} {
		want, wantEntries, err := loggrep.RawQuery(raw, cmd)
		if err != nil {
			t.Fatal(err)
		}
		var q struct {
			Lines   []int    `json:"lines"`
			Entries []string `json:"entries"`
			Partial bool     `json:"partial"`
		}
		getInto(t, base+"/v1/query?source=acme/app&q="+url.QueryEscape(cmd), &q)
		if q.Partial || len(q.Lines) != 2*len(want) {
			t.Fatalf("query %q: %d matches (partial=%v), want %d", cmd, len(q.Lines), q.Partial, 2*len(want))
		}
		for i, line := range q.Lines {
			w := i % len(want)
			if line != want[w]+i/len(want)*perSeg || q.Entries[i] != wantEntries[w] {
				t.Fatalf("query %q: match %d is line %d %q", cmd, i, line, q.Entries[i])
			}
		}
	}
	for _, p := range segs {
		if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, seg) {
			t.Fatalf("%s changed on disk (%v)", p, err)
		}
	}
}
