// Command loggrep compresses log blocks into CapsuleBoxes (or multi-block
// archives) and runs grep-like queries on them.
//
// Run `loggrep help` for the command list and `loggrep help <command>`
// for one command's flags; both are generated from the real flag sets,
// so they cannot drift from the implementation.
//
// Archives with damaged blocks still answer queries: matches from healthy
// blocks are printed and each damaged region is reported on stderr. With
// -strict any damage makes the command fail instead. verify checks
// integrity explicitly (frame structure and checksums; -deep also
// reconstructs every line).
//
// Examples:
//
//	loggrep compress -o app.lgrep app.log
//	loggrep compress -archive -block-mb 16 big.log
//	loggrep query app.lgrep 'ERROR AND dst:11.8.* NOT state:503'
//	loggrep query -trace app.lgrep ERROR
//	loggrep query -trace=json app.lgrep ERROR
//	loggrep stats -json app.lgrep
//	loggrep explain app.lgrep ERROR
//	loggrep cat app.lgrep > app.log.restored
//	loggrep verify -deep app.lgrep
//	loggrep diag flightrec/bundle-20260805T100000.000-0001-sigquit.json
//	loggrep top -server http://localhost:8080
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"loggrep"
	"loggrep/internal/anatomy"
	"loggrep/internal/blobstore"
	"loggrep/internal/flightrec"
	"loggrep/internal/obsv"
	"loggrep/internal/version"
)

// command is one loggrep subcommand. Its flag set is the single source of
// truth for help text: the usage listing and `loggrep help <cmd>` are
// generated from it, so documented flags are exactly the implemented ones.
type command struct {
	name    string
	args    string // positional-argument hint for the usage line
	summary string
	fs      *flag.FlagSet
	run     func() error // called after fs.Parse; positionals via fs.Args()
}

func (c *command) usageLine() string {
	line := "loggrep " + c.name
	if numFlags(c.fs) > 0 {
		line += " [flags]"
	}
	if c.args != "" {
		line += " " + c.args
	}
	return line
}

func numFlags(fs *flag.FlagSet) int {
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	return n
}

// commands builds the subcommand table. Fresh per call so tests can
// exercise it without shared flag state.
func commands() []*command {
	return []*command{
		newCompressCmd(),
		newQueryCmd(),
		newCatCmd(),
		newVerifyCmd(),
		newStatCmd(),
		newStatsCmd(),
		newExplainCmd(),
		newDiagCmd(),
		newTopCmd(),
		newVersionCmd(),
	}
}

func findCommand(cmds []*command, name string) *command {
	for _, c := range cmds {
		if c.name == name {
			return c
		}
	}
	return nil
}

// writeUsage prints the one-line-per-command overview.
func writeUsage(w io.Writer, cmds []*command) {
	fmt.Fprintln(w, "usage: loggrep <command> [flags] [args]")
	fmt.Fprintln(w, "\ncommands:")
	for _, c := range cmds {
		fmt.Fprintf(w, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "  help       detailed help for one command: loggrep help <command>")
}

// writeHelp prints one command's summary, usage line, and flags — straight
// from its flag set.
func writeHelp(w io.Writer, c *command) {
	fmt.Fprintf(w, "%s\n\nusage: %s\n", c.summary, c.usageLine())
	if numFlags(c.fs) > 0 {
		fmt.Fprintln(w, "\nflags:")
		c.fs.SetOutput(w)
		c.fs.PrintDefaults()
	}
}

func main() {
	cmds := commands()
	if len(os.Args) < 2 {
		writeUsage(os.Stderr, cmds)
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "-version" || name == "--version" {
		name = "version"
	}
	if name == "help" || name == "-h" || name == "--help" {
		if len(os.Args) >= 3 {
			c := findCommand(cmds, os.Args[2])
			if c == nil {
				fmt.Fprintf(os.Stderr, "loggrep: unknown command %q\n", os.Args[2])
				writeUsage(os.Stderr, cmds)
				os.Exit(2)
			}
			writeHelp(os.Stdout, c)
			return
		}
		writeUsage(os.Stdout, cmds)
		return
	}
	c := findCommand(cmds, name)
	if c == nil {
		fmt.Fprintf(os.Stderr, "loggrep: unknown command %q\n", name)
		writeUsage(os.Stderr, cmds)
		os.Exit(2)
	}
	c.fs.Usage = func() { writeHelp(os.Stderr, c) }
	c.fs.Parse(os.Args[2:])
	if err := c.run(); err != nil {
		fmt.Fprintln(os.Stderr, "loggrep:", err)
		os.Exit(1)
	}
}

func newCompressCmd() *command {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	out := fs.String("o", "", "output file (default <logfile>.lgrep)")
	arch := fs.Bool("archive", false, "build a multi-block archive")
	blockMB := fs.Int("block-mb", 64, "archive block size in MB")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "archive compression workers")
	sp := fs.Bool("sp", false, "static patterns only (LogGrep-SP)")
	noPad := fs.Bool("no-pad", false, "disable fixed-length padding")
	noStamps := fs.Bool("no-stamps", false, "disable capsule stamps")
	noIndex := fs.Bool("no-index", false, "disable the block-skipping index sections (archive mode)")
	chunkKB := fs.Int("chunk-kb", 0, "cut capsules into N-KB chunks (0 = whole capsules)")
	c := &command{
		name:    "compress",
		args:    "<logfile>",
		summary: "compress a log file into a CapsuleBox or archive",
		fs:      fs,
	}
	c.run = func() error {
		if fs.NArg() != 1 {
			return fmt.Errorf("compress needs exactly one log file")
		}
		in := fs.Arg(0)
		block, err := os.ReadFile(in)
		if err != nil {
			return err
		}
		opts := loggrep.DefaultOptions()
		opts.StaticOnly = *sp
		opts.DisablePadding = *noPad
		opts.DisableStamps = *noStamps
		opts.ChunkBytes = *chunkKB << 10

		var data []byte
		if *arch {
			aopts := loggrep.DefaultArchiveOptions()
			aopts.Core = opts
			aopts.BlockBytes = *blockMB << 20
			aopts.Workers = *workers
			aopts.NoIndex = *noIndex
			data, err = loggrep.CompressArchive(block, aopts)
			if err != nil {
				return err
			}
		} else {
			data = loggrep.Compress(block, opts)
		}
		dst := *out
		if dst == "" {
			dst = in + ".lgrep"
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("%s: %d -> %d bytes (%.2fx)\n", dst, len(block), len(data),
			float64(len(block))/float64(len(data)))
		return nil
	}
	return c
}

// cliBlobs is the CLI's fault-policy blob store: plain paths, default
// retry policy, no breaker gauge (one-shot processes don't scrape).
var cliBlobs = sync.OnceValue(func() *blobstore.Store {
	return blobstore.Wrap(blobstore.NewLocal(""), blobstore.Policy{})
})

// readBlob reads a user-named compressed file through the blob fault
// policy, so a transient read error costs a retry instead of the whole
// command.
func readBlob(path string) ([]byte, error) {
	return cliBlobs().Get(context.Background(), path)
}

// openFile opens a user-named compressed file: an archive, or a bare
// CapsuleBox as an archive of one block. size is the file's byte length.
func openFile(path string) (a *loggrep.Archive, size int, err error) {
	data, err := readBlob(path)
	if err != nil {
		return nil, 0, err
	}
	a, err = loggrep.OpenArchive(data)
	return a, len(data), err
}

// reportDamage prints each damaged region on stderr; with strict set it
// turns any damage into a command failure.
func reportDamage(damaged []loggrep.ArchiveBlockError, strict bool) error {
	for i := range damaged {
		fmt.Fprintln(os.Stderr, "loggrep: damaged:", damaged[i].Error())
	}
	if strict && len(damaged) > 0 {
		return fmt.Errorf("%d damaged region(s)", len(damaged))
	}
	return nil
}

// traceFlag is the query command's -trace value: bare -trace prints the
// text per-stage breakdown, -trace=json emits one wide-event JSON line (the
// same shape loggrepd's slow-query log writes). Both land on stderr so
// stdout stays the matched lines.
type traceFlag struct{ mode string }

func (f *traceFlag) String() string   { return f.mode }
func (f *traceFlag) IsBoolFlag() bool { return true }
func (f *traceFlag) Set(v string) error {
	switch v {
	case "true", "1", "text":
		f.mode = "text"
	case "false", "0":
		f.mode = ""
	case "json":
		f.mode = "json"
	default:
		return fmt.Errorf("bad -trace value %q: want -trace, -trace=text, or -trace=json", v)
	}
	return nil
}

func newQueryCmd() *command {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	strict := fs.Bool("strict", false, "fail if any block is damaged instead of returning partial results")
	var trace traceFlag
	fs.Var(&trace, "trace", "print a per-stage span breakdown to stderr; -trace=json emits one wide-event JSON line instead")
	timeout := fs.Duration("timeout", 0, "abort the query after this long (0 = no deadline)")
	noIndex := fs.Bool("no-index", false, "ignore block-skipping index sections, always full-scan (archives)")
	c := &command{
		name:    "query",
		args:    "<file.lgrep> <query command>",
		summary: "run a grep-like command, print matching lines",
		fs:      fs,
	}
	c.run = func() error {
		if fs.NArg() < 2 {
			return fmt.Errorf("query needs a compressed file and a command")
		}
		a, _, err := openFile(fs.Arg(0))
		if err != nil {
			return err
		}
		if *noIndex {
			a.SetIndexEnabled(false)
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		cmd := strings.Join(fs.Args()[1:], " ")
		var tr *loggrep.Trace
		if trace.mode != "" {
			tr = obsv.NewTrace("query")
		}
		t0 := time.Now()
		res, err := a.Search(ctx, cmd, loggrep.SearchOpts{Trace: tr})
		if err != nil {
			return err
		}
		for i, line := range res.Lines {
			fmt.Printf("%d:%s\n", line+1, res.Entries[i])
		}
		if res.Decompressions > 0 {
			fmt.Fprintf(os.Stderr, "%d matches, %d capsules decompressed\n", res.Matches, res.Decompressions)
		} else {
			fmt.Fprintf(os.Stderr, "%d matches\n", res.Matches)
		}
		switch trace.mode {
		case "json":
			ev := &obsv.WideEvent{
				TraceID:  obsv.NewTraceID128(),
				Time:     time.Now().UTC().Format(time.RFC3339Nano),
				Version:  version.Version,
				Endpoint: "cli",
				Source:   fs.Arg(0),
				Command:  cmd,
			}
			ev.FillFromTrace(tr.Data())
			ev.DurNS = time.Since(t0).Nanoseconds()
			ev.Matches = int64(res.Matches)
			ev.DamagedRegions = int64(len(res.Damaged))
			if err := ev.WriteLine(os.Stderr); err != nil {
				return err
			}
		case "text":
			fmt.Fprint(os.Stderr, tr.String())
		}
		return reportDamage(res.Damaged, *strict)
	}
	return c
}

func newCatCmd() *command {
	fs := flag.NewFlagSet("cat", flag.ExitOnError)
	strict := fs.Bool("strict", false, "fail on any damage instead of restoring what survives")
	c := &command{
		name:    "cat",
		args:    "<file.lgrep>",
		summary: "decompress and print every log entry",
		fs:      fs,
	}
	c.run = func() error {
		if fs.NArg() != 1 {
			return fmt.Errorf("cat needs a compressed file")
		}
		a, _, err := openFile(fs.Arg(0))
		if err != nil {
			return err
		}
		var (
			lines   []string
			damaged []loggrep.ArchiveBlockError
		)
		if *strict {
			if lines, err = a.ReconstructAll(); err != nil {
				return err
			}
		} else {
			lines, damaged = a.ReconstructPartial()
		}
		for _, l := range lines {
			fmt.Println(l)
		}
		return reportDamage(damaged, *strict)
	}
	return c
}

func newVerifyCmd() *command {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	deep := fs.Bool("deep", false, "additionally reconstruct every line")
	c := &command{
		name:    "verify",
		args:    "<file.lgrep>",
		summary: "check frame structure and checksums",
		fs:      fs,
	}
	c.run = func() error {
		if fs.NArg() != 1 {
			return fmt.Errorf("verify needs a compressed file")
		}
		a, _, err := openFile(fs.Arg(0))
		if err != nil {
			return err
		}
		damaged := a.Verify(*deep)
		if len(damaged) == 0 {
			fmt.Println("ok")
			return nil
		}
		return reportDamage(damaged, true)
	}
	return c
}

func newStatCmd() *command {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	c := &command{
		name:    "stat",
		args:    "<file.lgrep>",
		summary: "print format, line count, and size summary",
		fs:      fs,
	}
	c.run = func() error {
		if fs.NArg() != 1 {
			return fmt.Errorf("stat needs a compressed file")
		}
		a, size, err := openFile(fs.Arg(0))
		if err != nil {
			return err
		}
		fmt.Printf("format: archive\nblocks: %d\nlines: %d\n", a.NumBlocks(), a.NumLines())
		if raw := a.RawBytes(); raw > 0 { // a bare box does not record its raw size
			fmt.Printf("raw bytes: %d\n", raw)
		}
		fmt.Printf("compressed bytes: %d\n", size)
		if a.HasIndex() {
			ix := a.IndexStats()
			fmt.Printf("index bytes: %d (blooms %d, postings %d, %d tokens)\n",
				ix.TotalBytes(), ix.BloomBytes, ix.PostingsBytes, ix.Tokens)
		}
		if d := a.Damage(); len(d) > 0 {
			fmt.Printf("damaged regions: %d\n", len(d))
		}
		return nil
	}
	return c
}

func newExplainCmd() *command {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	c := &command{
		name:    "explain",
		args:    "<file.lgrep> <query command>",
		summary: "show the query plan and stamp-filtering funnel",
		fs:      fs,
	}
	c.run = func() error {
		if fs.NArg() < 2 {
			return fmt.Errorf("explain needs a compressed file and a command")
		}
		// Blocks are explained one by one and the funnels merged by
		// template, so the output reads like one big box under a
		// block-pruning summary.
		a, _, err := openFile(fs.Arg(0))
		if err != nil {
			return err
		}
		ex, err := a.Explain(strings.Join(fs.Args()[1:], " "))
		if err != nil {
			return err
		}
		fmt.Print(ex.String())
		return nil
	}
	return c
}

func newStatsCmd() *command {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the full anatomy report as JSON")
	c := &command{
		name:    "stats",
		args:    "<file.lgrep>",
		summary: "dissect a box or archive: per-group and per-capsule anatomy",
		fs:      fs,
	}
	c.run = func() error {
		if fs.NArg() != 1 {
			return fmt.Errorf("stats needs a compressed file")
		}
		data, err := readBlob(fs.Arg(0))
		if err != nil {
			return err
		}
		rep, err := anatomy.Inspect(data)
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		fmt.Print(rep.String())
		return nil
	}
	return c
}

func newDiagCmd() *command {
	fs := flag.NewFlagSet("diag", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the machine-readable incident summary as JSON")
	c := &command{
		name:    "diag",
		args:    "<bundle.json>",
		summary: "render a flight-recorder bundle's incident story",
		fs:      fs,
	}
	c.run = func() error {
		if fs.NArg() != 1 {
			return fmt.Errorf("diag needs a flight-recorder bundle file")
		}
		b, err := flightrec.LoadBundle(fs.Arg(0))
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(b.Summary())
		}
		fmt.Print(b.Story())
		return nil
	}
	return c
}

func newVersionCmd() *command {
	fs := flag.NewFlagSet("version", flag.ExitOnError)
	c := &command{
		name:    "version",
		summary: "print the build version and commit",
		fs:      fs,
	}
	c.run = func() error {
		fmt.Println("loggrep", version.String())
		return nil
	}
	return c
}
