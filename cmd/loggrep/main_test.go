package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"loggrep/internal/flightrec"
	"loggrep/internal/loggen"
	"loggrep/internal/obsv"
)

// buildCLI compiles the loggrep binary once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "loggrep")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", bin, args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "a.log")
	lt, _ := loggen.ByName("A")
	raw := lt.Block(3, 4000)
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// compress (box)
	boxPath := filepath.Join(dir, "a.box")
	out, _ := run(t, bin, "compress", "-o", boxPath, logPath)
	if !strings.Contains(out, "->") {
		t.Fatalf("compress output: %q", out)
	}

	// compress (archive, chunked)
	arcPath := filepath.Join(dir, "a.arc")
	run(t, bin, "compress", "-archive", "-block-mb", "1", "-chunk-kb", "32", "-o", arcPath, logPath)

	for _, path := range []string{boxPath, arcPath} {
		// stat
		out, _ = run(t, bin, "stat", path)
		if !strings.Contains(out, "lines: 4000") {
			t.Fatalf("stat %s: %q", path, out)
		}
		// query
		out, stderr := run(t, bin, "query", path, "ERROR AND state:REQ_ST_CLOSED AND 20012 AND reqId:5E9D21AD5E473938")
		if !strings.Contains(out, "reqId:5E9D21AD5E473938") {
			t.Fatalf("query %s returned no needles: %q", path, out)
		}
		if !strings.Contains(stderr, "matches") {
			t.Fatalf("query stderr: %q", stderr)
		}
		// cat restores the original bytes
		out, _ = run(t, bin, "cat", path)
		if out != string(raw) {
			t.Fatalf("cat %s does not round-trip (%d vs %d bytes)", path, len(out), len(raw))
		}
	}
}

// runFail runs the binary expecting a nonzero exit and returns stderr.
func runFail(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("%s %v succeeded, want failure", bin, args)
	}
	return stderr.String()
}

func TestCLIVerifyAndStrict(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "g.log")
	lt, _ := loggen.ByName("G")
	raw := lt.Block(5, 15000) // ~1.5 MB: several 1 MB-cut blocks
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	arcPath := filepath.Join(dir, "g.arc")
	run(t, bin, "compress", "-archive", "-block-mb", "1", "-o", arcPath, logPath)

	out, _ := run(t, bin, "verify", "-deep", arcPath)
	if !strings.Contains(out, "ok") {
		t.Fatalf("verify pristine: %q", out)
	}

	// Flip one byte mid-file (payload or header, either quarantines).
	data, err := os.ReadFile(arcPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	badPath := filepath.Join(dir, "g.bad.arc")
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if stderr := runFail(t, bin, "verify", badPath); !strings.Contains(stderr, "damaged") {
		t.Fatalf("verify stderr: %q", stderr)
	}
	// Non-strict query still answers from the healthy blocks and reports
	// the damage on stderr; strict turns it into a failure.
	_, stderr := run(t, bin, "query", badPath, "NOT INFO")
	if !strings.Contains(stderr, "damaged") {
		t.Fatalf("query stderr lacks damage report: %q", stderr)
	}
	runFail(t, bin, "query", "-strict", badPath, "NOT INFO")

	// cat salvages the surviving lines; -strict refuses.
	out, stderr = run(t, bin, "cat", badPath)
	if len(out) == 0 || len(out) >= len(raw) {
		t.Fatalf("partial cat returned %d bytes of %d", len(out), len(raw))
	}
	if !strings.Contains(stderr, "damaged") {
		t.Fatalf("cat stderr lacks damage report: %q", stderr)
	}
	runFail(t, bin, "cat", "-strict", badPath)
}

// TestUsageListsEveryCommand pins the property the help system exists
// for: the overview is generated from the command table, so every command
// and summary appears in it.
func TestUsageListsEveryCommand(t *testing.T) {
	cmds := commands()
	var b strings.Builder
	writeUsage(&b, cmds)
	out := b.String()
	for _, c := range cmds {
		if !strings.Contains(out, c.name) {
			t.Errorf("usage missing command %q:\n%s", c.name, out)
		}
		if !strings.Contains(out, c.summary) {
			t.Errorf("usage missing summary for %q:\n%s", c.name, out)
		}
	}
	if !strings.Contains(out, "help") {
		t.Errorf("usage missing help command:\n%s", out)
	}
}

// TestHelpReflectsFlagSet checks per-command help is generated from the
// real flag set: every registered flag name and usage string appears.
func TestHelpReflectsFlagSet(t *testing.T) {
	for _, c := range commands() {
		var b strings.Builder
		writeHelp(&b, c)
		out := b.String()
		if !strings.Contains(out, "loggrep "+c.name) {
			t.Errorf("%s: help missing usage line:\n%s", c.name, out)
		}
		c.fs.VisitAll(func(f *flag.Flag) {
			if !strings.Contains(out, "-"+f.Name) {
				t.Errorf("%s: help missing flag -%s:\n%s", c.name, f.Name, out)
			}
			if !strings.Contains(out, f.Usage) {
				t.Errorf("%s: help missing usage text for -%s:\n%s", c.name, f.Name, out)
			}
		})
	}
}

// TestQueryHelpMentionsTrace pins that query's -trace flag is documented —
// it must show up because help is built from the flag set itself.
func TestQueryHelpMentionsTrace(t *testing.T) {
	q := findCommand(commands(), "query")
	if q == nil {
		t.Fatal("no query command")
	}
	var b strings.Builder
	writeHelp(&b, q)
	out := b.String()
	for _, want := range []string{"-trace", "-strict", "per-stage span breakdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("query help missing %q:\n%s", want, out)
		}
	}
}

// TestCLITraceFlag runs `loggrep query -trace` end to end and checks the
// per-stage breakdown lands on stderr.
func TestCLITraceFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "a.log")
	lt, _ := loggen.ByName("A")
	if err := os.WriteFile(logPath, lt.Block(3, 2000), 0o644); err != nil {
		t.Fatal(err)
	}
	boxPath := filepath.Join(dir, "a.box")
	run(t, bin, "compress", "-o", boxPath, logPath)
	_, stderr := run(t, bin, "query", "-trace", boxPath, "ERROR")
	for _, want := range []string{"trace query", "filter", "verify"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("trace output missing %q:\n%s", want, stderr)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	for _, args := range [][]string{
		{},
		{"nope"},
		{"compress"},
		{"query", "/does/not/exist", "x"},
		{"cat"},
	} {
		cmd := exec.Command(bin, args...)
		if err := cmd.Run(); err == nil {
			t.Errorf("loggrep %v should fail", args)
		}
	}
}

// TestCLITraceJSON runs `loggrep query -trace=json` and checks one valid
// wide-event JSON line lands on stderr (after the "N matches" line).
func TestCLITraceJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "a.log")
	lt, _ := loggen.ByName("A")
	if err := os.WriteFile(logPath, lt.Block(3, 2000), 0o644); err != nil {
		t.Fatal(err)
	}
	boxPath := filepath.Join(dir, "a.box")
	run(t, bin, "compress", "-o", boxPath, logPath)
	_, stderr := run(t, bin, "query", "-trace=json", boxPath, lt.Query)
	var evLine string
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, "{") {
			evLine = line
			break
		}
	}
	if evLine == "" {
		t.Fatalf("no JSON line on stderr:\n%s", stderr)
	}
	var ev struct {
		TraceID      string `json:"trace_id"`
		Endpoint     string `json:"endpoint"`
		Source       string `json:"source"`
		Command      string `json:"command"`
		DurNS        int64  `json:"dur_ns"`
		Matches      int64  `json:"matches"`
		CapsuleScans int64  `json:"capsule_scans"`
		Spans        []any  `json:"spans"`
	}
	if err := json.Unmarshal([]byte(evLine), &ev); err != nil {
		t.Fatalf("wide event not valid JSON: %v\n%s", err, evLine)
	}
	if len(ev.TraceID) != 32 || ev.Endpoint != "cli" || ev.Source != boxPath {
		t.Errorf("event identity wrong: %+v", ev)
	}
	if ev.Command != lt.Query || ev.DurNS <= 0 || ev.Matches == 0 || len(ev.Spans) == 0 {
		t.Errorf("event content wrong: %+v", ev)
	}
}

// TestCLIStats checks `loggrep stats` on a box and an archive: the human
// table carries the anatomy headline and the JSON form's packed accounting
// sums exactly to the file size.
func TestCLIStats(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "a.log")
	lt, _ := loggen.ByName("A")
	if err := os.WriteFile(logPath, lt.Block(3, 4000), 0o644); err != nil {
		t.Fatal(err)
	}
	boxPath := filepath.Join(dir, "a.box")
	run(t, bin, "compress", "-o", boxPath, logPath)
	arcPath := filepath.Join(dir, "a.arc")
	run(t, bin, "compress", "-archive", "-block-mb", "1", "-o", arcPath, logPath)

	for _, path := range []string{boxPath, arcPath} {
		out, _ := run(t, bin, "stats", path)
		for _, want := range []string{"anatomy:", "stage", "parse", "pack", "capsules by kind", "dict"} {
			if !strings.Contains(out, want) {
				t.Errorf("stats %s missing %q:\n%s", path, want, out)
			}
		}

		jsonOut, _ := run(t, bin, "stats", "-json", path)
		var rep struct {
			TotalBytes int `json:"total_bytes"`
			Stages     []struct {
				PackedBytes int `json:"packed_bytes"`
			} `json:"stages"`
		}
		if err := json.Unmarshal([]byte(jsonOut), &rep); err != nil {
			t.Fatalf("stats -json %s: %v", path, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, s := range rep.Stages {
			sum += s.PackedBytes
		}
		if sum != int(fi.Size()) || rep.TotalBytes != int(fi.Size()) {
			t.Errorf("stats %s: packed stages sum to %d, file is %d bytes", path, sum, fi.Size())
		}
	}
}

// TestCLIExplainArchive: explain now works on archives, reporting the
// block-stamp pruning summary plus the merged per-group funnel.
func TestCLIExplainArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "a.log")
	lt, _ := loggen.ByName("A")
	if err := os.WriteFile(logPath, lt.Block(3, 15000), 0o644); err != nil {
		t.Fatal(err)
	}
	arcPath := filepath.Join(dir, "a.arc")
	run(t, bin, "compress", "-archive", "-block-mb", "1", "-o", arcPath, logPath)
	out, _ := run(t, bin, "explain", arcPath, lt.Query)
	for _, want := range []string{"explain", "archive:", "blocks", "searched", "candidate lines"} {
		if !strings.Contains(out, want) {
			t.Errorf("archive explain missing %q:\n%s", want, out)
		}
	}
	// A plain box explains as an archive of one block.
	boxPath := filepath.Join(dir, "a.box")
	run(t, bin, "compress", "-o", boxPath, logPath)
	out, _ = run(t, bin, "explain", boxPath, lt.Query)
	if !strings.Contains(out, "candidate lines") || !strings.Contains(out, "archive: 1 blocks (1 searched") {
		t.Errorf("box explain wrong:\n%s", out)
	}
}

// TestCLIVersion: the version command and its flag spellings all print the
// build stamp.
func TestCLIVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	for _, args := range [][]string{{"version"}, {"-version"}, {"--version"}} {
		out, _ := run(t, bin, args...)
		if !strings.Contains(out, "loggrep") || !strings.Contains(out, "go1") {
			t.Errorf("loggrep %v output: %q", args, out)
		}
	}
}

// TestCLIDiag renders a real flight-recorder bundle end to end: the text
// story and the -json summary both come straight from the dumped file.
func TestCLIDiag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	rec := flightrec.NewRecorder(flightrec.Config{Dir: dir, Registry: obsv.NewRegistry()})
	rec.Record(&obsv.WideEvent{TraceID: "00c0ffee00c0ffee", Endpoint: "query", Source: "prod",
		Command: "ERROR AND state:503", Status: 200, DurNS: 250_000,
		Spans: []obsv.Span{{Name: "filter", DurNS: 200_000}, {Name: "verify", DurNS: 40_000}}})
	rec.Sample()
	path, err := rec.TriggerDump("sigquit")
	if err != nil {
		t.Fatal(err)
	}

	out, _ := run(t, bin, "diag", path)
	for _, want := range []string{
		"trigger=sigquit", "metrics timeline", "worst requests:",
		"00c0ffee00c0ffee", "prod: ERROR AND state:503", "stage breakdown", "filter", "verify",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diag story missing %q:\n%s", want, out)
		}
	}

	jsonOut, _ := run(t, bin, "diag", "-json", path)
	var s struct {
		Manifest struct {
			SchemaVersion int    `json:"schema_version"`
			Trigger       string `json:"trigger"`
		} `json:"manifest"`
		Requests int `json:"requests"`
		Stages   []struct {
			Name string `json:"name"`
		} `json:"stages"`
	}
	if err := json.Unmarshal([]byte(jsonOut), &s); err != nil {
		t.Fatalf("diag -json not valid JSON: %v\n%s", err, jsonOut)
	}
	if s.Manifest.Trigger != "sigquit" || s.Manifest.SchemaVersion != flightrec.BundleSchemaVersion || s.Requests != 1 || len(s.Stages) != 2 {
		t.Errorf("diag -json content wrong: %+v\n%s", s, jsonOut)
	}

	// A missing or non-bundle file is a clean failure, not a panic.
	if stderr := runFail(t, bin, "diag", filepath.Join(dir, "nope.json")); stderr == "" {
		t.Error("diag on missing file produced no error output")
	}
}
