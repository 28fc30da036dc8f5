package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Rates of serve-mixed. ISSUE 11 asked for 30 batches/s of 1000 lines and
// 10 queries/s over 40 s; a run here measures for about 10 s, so the same
// 30 000 lines/s (2.6 MB/s, about 40 % of one core's seal rate) arrive as
// 100 batches/s of 300 lines and the reader asks 20 queries/s: that keeps
// 1000+ acks for a p99 and 200+ queries for a p95.
const (
	batchLines   = 300
	batchRate    = 100  // POST /ingest per second, steady phase
	queryRate    = 20   // GET /v1/query per second, steady phase
	burstBatches = 1000 // back-to-back, 300 000 lines = 26 MB, under the 64 MB tenant buffer
	// settledQueries is the length of the settled read phase: distinct
	// queries asked once the steady phase's lines are sealed.
	settledQueries = 1000
	// readyTimeout bounds every wait on the child: readiness, drain, exit.
	readyTimeout = 30 * time.Second
)

type serveConfig struct {
	seed       int64
	seconds    float64
	batchLines int
	batchRate  int
	queryRate  int
	burst      int
	setupReps  int
	settled    int    // distinct queries of the settled read phase
	loggrepd   string // path of the built binary
	tmpRoot    string // where the run's temp dir is made
}

// child is a running loggrepd and everything needed to stop it and clean up.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dir     string // temp dir holding ingest/, flightrec/ and the log
	exited  chan error
	logPath string
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild starts the shipped binary with -ingest (fsync-before-ack on,
// -ingest-seal-mb 4, every other flag at its default), pointed at a fresh
// temp dir, and waits until /healthz answers.
func startChild(bin, tmpRoot string) (*child, error) {
	dir, err := os.MkdirTemp(tmpRoot, "serve-mixed-")
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	c := &child{base: fmt.Sprintf("http://127.0.0.1:%d", port), dir: dir, exited: make(chan error, 1), logPath: filepath.Join(dir, "loggrepd.log")}
	logf, err := os.Create(c.logPath)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	c.cmd = exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-ingest", "-ingest-seal-mb", "4",
		"-ingest-dir", filepath.Join(dir, "ingest"),
		"-flightrec-dir", filepath.Join(dir, "flightrec"))
	c.cmd.Stdout, c.cmd.Stderr = logf, logf
	if err := c.cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	logf.Close() // the child holds its own descriptor
	go func() { c.exited <- c.cmd.Wait() }()

	deadline := time.Now().Add(readyTimeout)
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case werr := <-c.exited:
			c.exited <- werr
			err = fmt.Errorf("loggrepd exited before it was ready: %v\n%s", werr, c.logTail())
			c.cleanup()
			return nil, err
		default:
		}
		if time.Now().After(deadline) {
			err = fmt.Errorf("loggrepd not ready after %v\n%s", readyTimeout, c.logTail())
			c.stop()
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (c *child) logTail() string {
	b, _ := os.ReadFile(c.logPath) // diagnostics only
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func (c *child) cleanup() { os.RemoveAll(c.dir) }

// stop sends SIGTERM, waits for the child to exit (killing it after
// readyTimeout so a wedged child fails the run instead of hanging it), and
// removes the temp dir. A child that does not exit 0 is an error.
func (c *child) stop() error {
	defer c.cleanup()
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is reported by the wait below
	select {
	case err := <-c.exited:
		if err != nil {
			return fmt.Errorf("loggrepd did not exit cleanly: %v\n%s", err, c.logTail())
		}
		return nil
	case <-time.After(readyTimeout):
		c.cmd.Process.Kill()
		<-c.exited
		return fmt.Errorf("loggrepd still running %v after SIGTERM; killed\n%s", readyTimeout, c.logTail())
	}
}

// procCPU reads the child's user+system CPU seconds from /proc/<pid>/stat.
func (c *child) procCPU() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks (100 per second on
	// Linux whatever the kernel's HZ).
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// peakRSSMB reads VmHWM from /proc/<pid>/status.
func (c *child) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// dirBytes sums the regular files under root.
func dirBytes(root string) int64 {
	var n int64
	filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// conn is one HTTP connection to the child: a client whose transport keeps
// a single connection, so the writer and the reader are exactly the two
// connections the workload names.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout:   readyTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "text/plain")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

var errRefused = errors.New("refused with 429")

// ingest posts one batch and returns the accepted line count.
func (c *conn) ingest(stream string, body []byte) (int, error) {
	status, b, err := c.do(http.MethodPost, "/ingest?tenant=bench&stream="+stream, body)
	if err != nil {
		return 0, err
	}
	if status == http.StatusTooManyRequests {
		return 0, errRefused
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("POST /ingest: status %d: %s", status, b)
	}
	var r struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return 0, err
	}
	return r.Accepted, nil
}

func (c *conn) seal(stream string) error {
	status, b, err := c.do(http.MethodPost, "/ingest/seal?tenant=bench&stream="+stream, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST /ingest/seal: status %d: %s", status, b)
	}
	return nil
}

type queryAnswer struct {
	Lines     []int    `json:"lines"`
	Entries   []string `json:"entries"`
	Partial   bool     `json:"partial"`
	Damaged   []any    `json:"damaged"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// queryRaw sends one query and returns the undecoded answer, so that a
// caller timing the request does not time the bench's own JSON decoding.
func (c *conn) queryRaw(stream string, q querySpec) ([]byte, error) {
	status, b, err := c.do(http.MethodGet, "/v1/query?source=bench/"+stream+"&q="+url.QueryEscape(q.command()), nil)
	if err != nil {
		return nil, err
	}
	if status == http.StatusTooManyRequests {
		return nil, errRefused
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/query: status %d: %s", status, b)
	}
	return b, nil
}

func decodeAnswer(b []byte) (*queryAnswer, error) {
	var a queryAnswer
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, err
	}
	if a.Partial || len(a.Damaged) > 0 {
		return nil, fmt.Errorf("answer flagged partial=%v damaged=%d", a.Partial, len(a.Damaged))
	}
	return &a, nil
}

// checkedQuery asks one query of the main stream and holds the answer to
// the oracle over the first lo..hi lines (see checkPrefixResult).
func (c *conn) checkedQuery(q querySpec, want []int, seq []string, lo, hi int) error {
	raw, err := c.queryRaw("main", q)
	if err != nil {
		return err
	}
	a, err := decodeAnswer(raw)
	if err != nil {
		return err
	}
	return checkPrefixResult(a.Lines, a.Entries, want, seq, lo, hi)
}

// sourceLines returns the line count /v1/sources reports for a stream.
func (c *conn) sourceLines(stream string) (int, error) {
	status, b, err := c.do(http.MethodGet, "/v1/sources", nil)
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/sources: status %d: %v", status, err)
	}
	var srcs []struct {
		Name  string `json:"name"`
		Lines int    `json:"lines"`
	}
	if err := json.Unmarshal(b, &srcs); err != nil {
		return 0, err
	}
	for _, s := range srcs {
		if s.Name == "bench/"+stream {
			return s.Lines, nil
		}
	}
	return 0, fmt.Errorf("GET /v1/sources: no source bench/%s", stream)
}

// childMetrics reads the child's own registry (/metrics?format=json).
// Counters decode as numbers, histograms as objects.
func (c *conn) childMetrics() (map[string]json.RawMessage, error) {
	status, b, err := c.do(http.MethodGet, "/metrics?format=json", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	var m map[string]json.RawMessage
	return m, json.Unmarshal(b, &m)
}

func counter(m map[string]json.RawMessage, name string) float64 {
	var v float64
	_ = json.Unmarshal(m[name], &v) // a missing counter reads as 0
	return v
}

func histogram(m map[string]json.RawMessage, name string) (h struct{ Count, P50, P99 float64 }) {
	_ = json.Unmarshal(m[name], &h) // a missing histogram reads as zeros
	return h
}

// servePlan is serve-mixed's input: the stream of lines in the order the
// writer sends them, cut into batches round-robin by type, and the oracle's
// answer to each query over the whole stream.
type servePlan struct {
	seq     []string // line i of the stream
	bodies  [][]byte // batch b holds seq[b*batchLines:(b+1)*batchLines]
	qs      []querySpec
	want    [][]int
	steadyN int // batches of the steady phase, after batch 0; the rest are the burst
	queries int // queries of the steady phase
	// settledQs are distinct "<severity> AND <token>" queries over the lines
	// of batch 0 and the steady phase, asked once those lines are sealed;
	// distinct, because the server answers a repeated query on a sealed
	// segment from its query cache.
	settledQs   []querySpec
	settledWant [][]int
}

func planServe(cfg serveConfig) (*servePlan, error) {
	p := &servePlan{
		steadyN: int(cfg.seconds * float64(cfg.batchRate)),
		queries: int(cfg.seconds * float64(cfg.queryRate)),
		qs:      coldQueries(cfg.seed),
	}
	total := 1 + p.steadyN + cfg.burst // batch 0 is the warm-up's
	perType := (total + len(mixed7) - 1) / len(mixed7) * cfg.batchLines
	c := genCorpus(cfg.seed, perType)
	for b := 0; b < total; b++ {
		from := c.typeStart[b%len(mixed7)] + b/len(mixed7)*cfg.batchLines
		batch := c.lines[from : from+cfg.batchLines]
		p.seq = append(p.seq, batch...)
		p.bodies = append(p.bodies, joinLines(batch))
	}
	for _, q := range p.qs {
		p.want = append(p.want, expectLines(p.seq, q))
	}
	settled := p.seq[:(1+p.steadyN)*cfg.batchLines]
	p.settledQs = refineQueries(&corpus{lines: settled}, cfg.seed, cfg.settled)
	var err error
	p.settledWant, err = expectMany(settled, p.settledQs)
	return p, err
}

// serveEnv is one set-up of serve-mixed: plan, child, two connections.
type serveEnv struct {
	plan           *servePlan
	child          *child
	writer, reader *conn
}

func (e *serveEnv) close() error {
	e.writer.close()
	e.reader.close()
	return e.child.stop()
}

// setupServe generates the plan, starts the child, waits for readiness and
// warms both connections: the writer posts batch 0, which also creates the
// stream, and the reader asks every query once. The first timed request then
// pays for no connection set-up, and every warm answer is checked too.
func setupServe(cfg serveConfig, fails *failures) (*serveEnv, error) {
	plan, err := planServe(cfg)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{plan: plan}
	if env.child, err = startChild(cfg.loggrepd, cfg.tmpRoot); err != nil {
		return nil, err
	}
	env.writer, env.reader = newConn(env.child.base), newConn(env.child.base)
	if n, err := env.writer.ingest("main", env.plan.bodies[0]); err != nil || n != cfg.batchLines {
		env.close()
		return nil, fmt.Errorf("warm-up: batch 0: accepted %d of %d lines: %v", n, cfg.batchLines, err)
	}
	for qi, q := range env.plan.qs {
		fails.check("warm-up "+q.command(), env.reader.checkedQuery(q, env.plan.want[qi], env.plan.seq, cfg.batchLines, cfg.batchLines))
	}
	return env, nil
}

func runServeMixed(cfg serveConfig, tr *tracer) (*result, error) {
	res := &result{Workload: "serve-mixed"}
	var prev *serveEnv
	var stopErr error
	env, setupS, err := repeatSetup(cfg.setupReps, func() (*serveEnv, error) {
		// Only the last set-up's child serves the run; stopping the
		// previous one is part of setting up again.
		if prev != nil {
			if err := prev.close(); err != nil {
				stopErr = err
			}
		}
		e, err := setupServe(cfg, &res.fails)
		prev = e
		return e, err
	})
	if err != nil {
		return nil, err
	}
	err = serveMeasure(cfg, env, setupS, tr, res)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = stopErr
	}
	return res, err
}

// serveMeasure is the timed part of serve-mixed: steady phase, drain,
// settled reads, burst, drain, final check. A non-nil tr makes it a traced run: a span
// around every request, and the per-layer metrics in res.Layer.
func serveMeasure(cfg serveConfig, env *serveEnv, setupS float64, tr *tracer, res *result) error {
	plan, w, r := env.plan, env.writer, env.reader
	var mu sync.Mutex // guards res.fails between the two connections
	check := func(what string, err error) {
		mu.Lock()
		res.fails.check(what, err)
		mu.Unlock()
	}
	before, err := r.childMetrics()
	if err != nil {
		return err
	}
	// The tracer is single-goroutine: each connection records into its own
	// and the two are merged when the steady phase ends.
	var wtr, rtr *tracer
	if tr != nil {
		wtr, rtr = newTracer(), newTracer()
	}
	// posted counts the lines of every batch whose POST has begun, acked
	// the lines the child has acknowledged; a query's answer must lie
	// between the two. Set-up posted batch 0.
	var posted, acked atomic.Int64
	posted.Store(int64(cfg.batchLines))
	acked.Store(int64(cfg.batchLines))
	var gaveUp atomic.Bool
	ackedBytes := int64(len(plan.bodies[0]))
	post := func(b int) bool {
		posted.Add(int64(cfg.batchLines))
		end := wtr.begin("server.Ingest")
		n, err := w.ingest("main", plan.bodies[b])
		end()
		if err == nil && n != cfg.batchLines {
			err = fmt.Errorf("accepted %d of %d lines", n, cfg.batchLines)
		}
		check(fmt.Sprintf("batch %d", b), err)
		if err != nil {
			// The stream no longer holds the planned lines, so no later
			// answer can be checked: stop writing.
			gaveUp.Store(true)
			return false
		}
		acked.Add(int64(n))
		ackedBytes += int64(len(plan.bodies[b]))
		return true
	}

	// The bench holds the whole plan (hundreds of MB) live; a collection
	// during the timed phases would take a core from the child for its
	// whole mark phase. Collect now, then not again until the burst is over.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cpu0 := env.child.procCPU()
	start := time.Now().Add(50 * time.Millisecond)
	var acks, reads []openLoopSample
	var overheadMS []float64
	var drainS float64
	var drainErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		acks = runOpenLoop(wallClock{}, start, time.Second/time.Duration(cfg.batchRate), plan.steadyN, func(i int) bool { return post(1 + i) })
		// Drain: what the sealer left behind at the end of the steady
		// phase. The writer does not wait for the reader's last query.
		lastAck := time.Now()
		drainErr = w.seal("main")
		drainS = time.Since(lastAck).Seconds()
	}()
	// The reader only keeps each raw answer with its bracket; decoding and
	// checking them wait until the phase is over, so that the bench's own
	// JSON decoding (megabytes for a broad query) neither competes with the
	// child for the two cores nor makes the generator late.
	type pending struct {
		qi, lo, hi int
		raw        []byte
		took       time.Duration
	}
	var answers []pending
	go func() {
		defer wg.Done()
		reads = runOpenLoop(wallClock{}, start, time.Second/time.Duration(cfg.queryRate), plan.queries, func(i int) bool {
			if gaveUp.Load() {
				return false // the writer's failure is already recorded
			}
			qi := i % len(plan.qs)
			lo := int(acked.Load())
			end := rtr.begin("server.Query")
			t0 := time.Now()
			raw, err := r.queryRaw("main", plan.qs[qi])
			took := time.Since(t0)
			end()
			if err != nil {
				check("steady "+plan.qs[qi].command(), err)
				return true
			}
			answers = append(answers, pending{qi: qi, lo: lo, hi: int(posted.Load()), raw: raw, took: took})
			return true
		})
	}()
	wg.Wait()
	steadyWallS := time.Since(start).Seconds() // with the drain
	for _, p := range answers {
		a, err := decodeAnswer(p.raw)
		if err == nil {
			err = checkPrefixResult(a.Lines, a.Entries, plan.want[p.qi], plan.seq, p.lo, p.hi)
			overheadMS = append(overheadMS, ms(p.took)-a.ElapsedMS)
		}
		check("steady "+plan.qs[p.qi].command(), err)
	}

	check("drain after steady phase", drainErr)
	cpu := env.child.procCPU() - cpu0
	steadyCPU := cpu
	steadyBytes := float64(ackedBytes - int64(len(plan.bodies[0])))

	// Settled reads: with the steady phase's lines all sealed and nothing
	// being written, the reader asks distinct queries back to back. These
	// are the workload's gated read latencies; the steady phase's own swing
	// by a third between identical runs on this box (NOISE.md) and are
	// reported ungated.
	var settledMS []float64
	n := int(acked.Load())
	for qi, q := range plan.settledQs {
		if gaveUp.Load() {
			break
		}
		end := tr.begin("server.Query")
		t0 := time.Now()
		raw, err := r.queryRaw("main", q)
		took := time.Since(t0)
		end()
		var a *queryAnswer
		if err == nil {
			a, err = decodeAnswer(raw)
		}
		if err == nil {
			err = checkPrefixResult(a.Lines, a.Entries, plan.settledWant[qi], plan.seq, n, n)
		}
		check("settled "+q.command(), err)
		if err == nil {
			settledMS = append(settledMS, ms(took))
		}
	}

	// Burst: the ack path (parse, WAL, fsync) flat out on one connection.
	burstLines, burstBytes := 0, 0
	cpu0 = env.child.procCPU()
	t0 := time.Now()
	for b := 1 + plan.steadyN; b < len(plan.bodies) && !gaveUp.Load() && post(b); b++ {
		burstLines += cfg.batchLines
		burstBytes += len(plan.bodies[b])
	}
	burstS := time.Since(t0).Seconds()
	check("drain after burst", w.seal("main"))
	cpu += env.child.procCPU() - cpu0

	// With everything sealed the stream must answer exactly as the oracle
	// does over the acked prefix, and hold exactly the acked lines.
	n = int(acked.Load())
	for qi, q := range plan.qs {
		check("final "+q.command(), r.checkedQuery(q, plan.want[qi], plan.seq, n, n))
	}
	got, err := r.sourceLines("main")
	if err == nil && got != n {
		err = fmt.Errorf("/v1/sources reports %d lines, %d were acked", got, n)
	}
	check("/v1/sources line count", err)

	after, err := r.childMetrics()
	if err != nil {
		return err
	}
	stored := dirBytes(filepath.Join(env.child.dir, "ingest", "bench", "main"))
	if len(acks) == 0 || len(reads) == 0 || len(settledMS) == 0 || burstLines == 0 || stored == 0 {
		return nil // the failures above say why
	}

	lat := func(s []openLoopSample, f func(openLoopSample) time.Duration) []float64 {
		out := make([]float64, len(s))
		for i, x := range s {
			out[i] = ms(f(x))
		}
		return sortedCopy(out)
	}
	fromDue := func(s openLoopSample) time.Duration { return s.FromDue }
	readMS, ackMS := lat(reads, fromDue), lat(acks, fromDue)
	serviceMS := lat(acks, func(s openLoopSample) time.Duration { return s.Service })
	sort.Float64s(settledMS)
	res.E2E = []metric{
		{"setup_s", setupS, "s", cfg.setupReps},
		// The ack path at the steady load: a batch's bytes over the median
		// time from sending it to its 200. The burst's ceiling swings by
		// a quarter between identical runs (whether the sealer shares the
		// handler's core) and is reported ungated as e2e.ingest_lines_s.
		{"write_mb_s", steadyBytes / float64(len(acks)) / 1e6 / (percentile(serviceMS, 50) / 1e3), "MB/s", len(acks)},
		{"read_p50_ms", percentile(settledMS, 50), "ms", len(settledMS)},
		{"read_p95_ms", percentile(settledMS, 95), "ms", len(settledMS)},
		{"compression_ratio", float64(ackedBytes) / float64(stored), "x", 1},
		{"cpu_s_per_gb", cpu / (float64(ackedBytes) / 1e9), "s/GB", 1},
	}
	if tr == nil {
		return nil
	}
	tr.merge(wtr)
	tr.merge(rtr)
	lm := newLayerMetrics()
	delta := func(name string) float64 { return counter(after, name) - counter(before, name) }
	lm.set("e2e.ingest_lines_s", float64(burstLines)/burstS, "1/s")
	lm.set("e2e.ingest_ack_p50_ms", percentile(ackMS, 50), "ms")
	lm.set("e2e.ingest_ack_p99_ms", percentile(ackMS, 99), "ms")
	lm.set("e2e.drain_s", drainS, "s")
	lm.set("e2e.query_p50_ms", percentile(readMS, 50), "ms")
	lm.set("e2e.query_p95_ms", percentile(readMS, 95), "ms")
	seal := histogram(after, "loggrep_ingest_seal_ns")
	lm.set("ingest.seal_p50_ms", seal.P50/1e6, "ms")
	lm.set("ingest.seal_p99_ms", seal.P99/1e6, "ms")
	lm.set("ingest.seals", delta("loggrep_ingest_seals_total"), "count")
	lm.set("ingest.backpressure_429", delta("loggrep_ingest_rejected_total"), "count")
	lm.set("ingest.wal_rollbacks", delta("loggrep_ingest_wal_rollbacks_total"), "count")
	hits, misses := delta("loggrep_ingest_sealed_cache_hits_total"), delta("loggrep_ingest_sealed_cache_misses_total")
	lm.set("ingest.sealed_cache_hit_rate", ratio(hits, hits+misses), "share")
	// Every acked byte is written once to a WAL and, sealed, once more as
	// a segment.
	lm.set("ingest.written_bytes_per_raw_byte", 1+ratio(delta("loggrep_ingest_sealed_compressed_bytes_total"), float64(ackedBytes)), "x")
	lm.set("server.http_overhead_ms", median(overheadMS), "ms")
	lm.set("server.shed_429", delta("loggrep_http_queries_shed_total"), "count")
	lm.set("server.query_late_p95_ms", percentile(lat(reads, func(s openLoopSample) time.Duration { return s.Late }), 95), "ms")
	lm.set("server.peak_rss_mb", env.child.peakRSSMB(), "MB")
	lm.set("server.cpu_s", cpu, "s")
	res.Layer = lm

	// The server's layers run in another process, so this ledger holds what
	// each side was busy for against the steady phase's wall-clock.
	busy := func(s []openLoopSample) (t float64) {
		for _, x := range s {
			t += x.Service.Seconds()
		}
		return t
	}
	fmt.Fprintf(os.Stderr, "# ledger serve-mixed: steady phase with its drain, %.3fs wall on %d cores\n", steadyWallS, runtime.NumCPU())
	for _, row := range []struct {
		label string
		s     float64
	}{
		{fmt.Sprintf("writer waiting for %d acks", len(acks)), busy(acks)},
		{fmt.Sprintf("reader waiting for %d answers", len(reads)), busy(reads)},
		{"child CPU (handlers, sealer, GC)", steadyCPU},
	} {
		fmt.Fprintf(os.Stderr, "#   %-34s %8.3fs  %5.1f%% of wall\n", row.label, row.s, 100*row.s/steadyWallS)
	}
	return nil
}

// buildLoggrepd compiles the shipped server from the module this bench
// belongs to. BENCH_LOGGREPD names an already-built binary (run.sh builds
// it beside the bench binary).
func buildLoggrepd(outDir string) (path string, seconds float64, err error) {
	if p := os.Getenv("BENCH_LOGGREPD"); p != "" {
		return p, 0, nil
	}
	path = filepath.Join(outDir, "loggrepd")
	t0 := time.Now()
	out, err := exec.Command("go", "build", "-o", path, "loggrep/cmd/loggrepd").CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("go build loggrep/cmd/loggrepd: %v\n%s", err, out)
	}
	return path, time.Since(t0).Seconds(), nil
}
