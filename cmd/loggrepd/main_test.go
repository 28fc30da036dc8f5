package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"loggrep/internal/core"
	"loggrep/internal/loggen"
)

// TestLoggrepdSIGQUITBundle is the flight recorder's acceptance path at
// process level: a loaded loggrepd receives SIGQUIT, writes exactly one
// diagnostic bundle, `loggrep diag` renders it, the -slowlog-file sink
// collected wide events, and the daemon still drains cleanly on SIGTERM.
func TestLoggrepdSIGQUITBundle(t *testing.T) {
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

	lt, _ := loggen.ByName("A")
	lgrep := filepath.Join(dir, "a.lgrep")
	if err := os.WriteFile(lgrep, core.Compress(lt.Block(3, 2000), core.DefaultOptions()), 0o644); err != nil {
		t.Fatal(err)
	}

	bundleDir := filepath.Join(dir, "fr")
	slowlog := filepath.Join(dir, "slow.log")
	cmd := exec.Command(daemon,
		"-addr", "127.0.0.1:0",
		"-load", "a="+lgrep,
		"-flightrec-dir", bundleDir,
		"-slowlog-file", slowlog,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon announces its picked port on stdout.
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listen line; stderr:\n%s", stderr.String())
	}
	go io.Copy(io.Discard, stdout)

	base := "http://" + addr
	for i := 0; i < 4; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/query?source=a&q=%s", base, "ERROR"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	var bundles []string
	for deadline := time.Now().Add(10 * time.Second); ; {
		bundles, _ = filepath.Glob(filepath.Join(bundleDir, "bundle-*.json"))
		if len(bundles) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no bundle after SIGQUIT; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1: %v", len(bundles), bundles)
	}

	diag := exec.Command(cli, "diag", bundles[0])
	out, err := diag.CombinedOutput()
	if err != nil {
		t.Fatalf("loggrep diag: %v\n%s", err, out)
	}
	for _, want := range []string{"trigger=sigquit", "worst requests:", "a: ERROR", "stage breakdown"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("diag story missing %q:\n%s", want, out)
		}
	}

	// The daemon is still healthy after the dump and drains cleanly.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after dump: %d", resp.StatusCode)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v\nstderr:\n%s", err, stderr.String())
	}

	// -slowlog-file alone means "log every request to this file": the
	// queries above must be there as JSON lines.
	data, err := os.ReadFile(slowlog)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 4 {
		t.Fatalf("slowlog has %d lines, want >= 4:\n%s", len(lines), data)
	}
	var ev struct {
		Endpoint string `json:"endpoint"`
		Source   string `json:"source"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("slowlog line not JSON: %v\n%s", err, lines[0])
	}
	if ev.Endpoint != "query" || ev.Source != "a" {
		t.Errorf("slowlog event wrong: %+v", ev)
	}
}

// TestLoggrepdInflightGauge: a request in flight on the plane loggrepd
// serves is the one loggrep_inflight_queries on /metrics counts. The
// gauge belongs to the first plane built on obsv.Default, so a daemon
// that built a second plane would serve one and report the other's zero.
func TestLoggrepdInflightGauge(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs a daemon")
	}
	dir := t.TempDir()
	daemon := filepath.Join(dir, "loggrepd")
	if out, err := exec.Command("go", "build", "-o", daemon, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build loggrepd: %v\n%s", err, out)
	}
	base, _, stderr, _ := startDaemon(t, daemon, "-ingest", "-ingest-dir", filepath.Join(dir, "ingest"))
	gauge := func() string {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "loggrep_inflight_queries "); ok {
				return v
			}
		}
		t.Fatalf("no loggrep_inflight_queries on /metrics; stderr:\n%s", stderr.String())
		return ""
	}
	inflight := func() int {
		resp, err := http.Get(base + "/v1/inflight")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct{ Count int }
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Count
	}

	// An ingest batch whose body is still arriving stays registered in
	// flight until the body ends.
	body, w := io.Pipe()
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/ingest?tenant=t&stream=s", "text/plain", body)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("ingest status %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	if _, err := w.Write([]byte("first line\n")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); inflight() != 1; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the ingest request never showed in /v1/inflight")
		}
	}
	if g := gauge(); g != "1" {
		t.Errorf("loggrep_inflight_queries = %s with one request in flight, want 1", g)
	}
	w.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n, g := inflight(), gauge(); n != 0 || g != "0" {
		t.Errorf("after the request: /v1/inflight count %d, gauge %s, want 0 and 0", n, g)
	}
}
