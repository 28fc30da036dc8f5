package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"loggrep"
	"loggrep/internal/archive"
	"loggrep/internal/loggen"
)

// ---- percentiles ----

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 50, false}, // not even the median has 10 beyond it
		{20, 50, true},
		{199, 95, false}, // 9.95 beyond
		{200, 95, true},
		{999, 99, false},
		{1000, 99, true},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if !supported(minSamples, 95) {
		t.Errorf("minSamples = %d does not support the p95 every workload reports", minSamples)
	}
	if !supported(batchRate*10, 99) {
		t.Errorf("%d acks of a 10 s steady phase do not support e2e.ingest_ack_p99_ms", batchRate*10)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (10 samples beyond)", got)
	}
	if got := percentile(v, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// ---- open-loop scheduler ----

// simClock advances only when slept on or when an operation "takes" time.
type simClock struct{ now time.Time }

func (c *simClock) Now() time.Time        { return c.now }
func (c *simClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromDue(t *testing.T) {
	clk := &simClock{now: time.Unix(1000, 0)}
	start := clk.now
	// 10 ms interval; operation 1 stalls for 35 ms, the others take 2 ms.
	service := []time.Duration{2, 35, 2, 2, 2, 2}
	samples := runOpenLoop(clk, start, 10*time.Millisecond, len(service), func(i int) bool {
		clk.now = clk.now.Add(service[i] * time.Millisecond)
		return true
	})
	type row struct{ fromDue, late, service time.Duration }
	want := []row{
		{2, 0, 2},
		{35, 0, 35}, // due 10, sent 10, done 45
		{27, 25, 2}, // due 20, sent 45 (25 late), done 47: the stall's victims count it
		{19, 17, 2}, // due 30, sent 47, done 49
		{11, 9, 2},  // due 40, sent 49, done 51
		{3, 1, 2},   // due 50, sent 51, done 53: caught up
	}
	for i, w := range want {
		got := row{samples[i].FromDue / time.Millisecond, samples[i].Late / time.Millisecond, samples[i].Service / time.Millisecond}
		if got != w {
			t.Errorf("op %d: got %+v, want %+v", i, got, w)
		}
	}
}

func TestOpenLoopStopsWhenOpGivesUp(t *testing.T) {
	clk := &simClock{now: time.Unix(0, 0)}
	samples := runOpenLoop(clk, clk.now, time.Millisecond, 10, func(i int) bool { return i < 3 })
	if len(samples) != 4 {
		t.Errorf("got %d samples, want 4 (the failing one is the last)", len(samples))
	}
}

// ---- span self-time arithmetic ----

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.sample", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "archive.Open", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "archive.Query", Start: 40, End: 90},
		{ID: 3, Parent: 2, Name: "core.Query", Start: 45, End: 60},
		{ID: 4, Parent: 2, Name: "core.Query", Start: 55, End: 70},  // overlaps span 3: 45..70 counted once
		{ID: 5, Parent: 2, Name: "core.Query", Start: 85, End: 120}, // clipped to the parent's end
	}
	want := []int64{
		100 - 20 - 50, // sample: minus Open and Query
		20,
		50 - 25 - 5, // Query: minus 45..70 and 85..90
		15, 15, 35,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsAndMerges(t *testing.T) {
	var none *tracer
	none.begin("x")() // a nil tracer records nothing and does not panic

	tr := newTracer()
	endOp := tr.begin("bench.sample")
	tr.begin("archive.Open")()
	endOp()
	tr.begin("bench.sample")()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[1].Op != 0 || tr.spans[2].Op != 1 || tr.spans[2].Parent != -1 {
		t.Fatalf("unexpected spans %+v", tr.spans)
	}
	other := newTracer()
	endOp = other.begin("server.Query")
	other.begin("child")()
	endOp()
	tr.merge(other)
	if len(tr.spans) != 5 || tr.spans[3].ID != 3 || tr.spans[4].Parent != 3 || tr.spans[3].Op != 2 {
		t.Fatalf("merge renumbered wrongly: %+v", tr.spans[3:])
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
}

// ---- oracle ----

var fixture = []string{
	"2021-01-01 00:00:01.000 INFO req reqId:AAAA000000000001 state:REQ_ST_OPEN code:20001",                       // 0
	"2021-01-01 00:00:02.000 ERROR req reqId:AAAA000000000002 state:REQ_ST_CLOSED code:20012",                    // 1
	"2021-01-01 00:00:03.000 ERROR auth UserId:-2 action:LOGIN quota=3",                                          // 2
	"2021-01-01 00:00:04.000 ERROR auth UserId:-27 action:LOGIN quota=3",                                         // 3
	"2021-01-01 00:00:05.000 ERROR auth UserId:41 action:LOGOUT quota=9",                                         // 4
	"2021-01-01 00:00:06.000 WARNING auth UserId:-2 action:RENEW quota=1",                                        // 5
	"2019-11-06 07:15:00 WARNING sync table-3 rows=17",                                                           // 6
	"2019-11-06 08:15:00 WARNING sync table-3 rows=17",                                                           // 7
	"2019-11-06  07:15:00 WARNING sync table-4 rows=1",                                                           // 8: two spaces
	"2021-01-01 00:00:09.000 INFO TraceType:PanguTraceSummary SectionType:RPC_SealAndNew CountFail:0 CountOk:5",  // 9
	"2021-01-01 00:00:10.000 INFO TraceType:PanguTraceSummary SectionType:RPC_SealAndNew CountFail:3 CountOk:5",  // 10
	"2021-01-01 00:00:11.000 INFO TraceType:PanguTraceSummary SectionType:RPC_SealAndNew CountFail:10 CountOk:5", // 11
	"2021-01-01 00:00:12.000 DEBUG rpc call method=Get dur=15us",                                                 // 12
	"2021-01-01 00:00:13.000 INFO trie failed to read trie data key 1618_3_149",                                  // 13
	"2021-01-01 00:00:14.000 INFO trie failed to read  trie data key 1618_3_150",                                 // 14: two spaces
	"2021-01-01 00:00:15.000 ERROR req reqId:AAAA000000000002 state:REQ_ST_OPEN code:20012",                      // 15: same id as 1
	"2021-01-01 00:00:16.000 INFO xreqId:AAAA000000000001y",                                                      // 16: id inside a longer word
	"ERROR", // 17
	"",      // 18
	"2021-01-01 00:00:19.000 INFO req reqId:AAAA000000000001 reqId:AAAA000000000001", // 19: twice in a line
}

func TestOracleOnFixture(t *testing.T) {
	cases := []struct {
		q    querySpec
		want []int
	}{
		{querySpec{Must: []string{"ERROR"}}, []int{1, 2, 3, 4, 15, 17}},
		{querySpec{Must: []string{"ERROR"}, Not: []string{"UserId:-2"}}, []int{1, 4, 15, 17}}, // -27 holds -2
		{querySpec{Must: []string{"WARNING", "2019-11-06 07"}}, []int{6}},
		{querySpec{Must: []string{"TraceType:PanguTraceSummary", "SectionType:RPC_SealAndNew"}, Not: []string{"CountFail:0"}}, []int{10, 11}},
		{querySpec{Must: []string{"failed to read trie data"}}, []int{13}},
		{querySpec{Must: []string{"ERROR", "state:REQ_ST_CLOSED", "20012", "reqId:AAAA000000000002"}}, []int{1}},
		{querySpec{Must: []string{"INFO", "reqId:AAAA000000000001"}}, []int{0, 16, 19}}, // substring, not word
		{querySpec{Must: []string{"nosuchtoken_1"}}, nil},
	}
	var qs []querySpec
	for _, c := range cases {
		if got := expectLines(fixture, c.q); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q: oracle says %v, the fixture's answer is %v", c.q.command(), got, c.want)
		}
		qs = append(qs, c.q)
	}
	// The program agrees with the hand-written answers too: the oracle's
	// semantics are the engine's.
	raw := joinLines(fixture)
	for _, c := range cases {
		lines, _, err := loggrep.RawQuery(raw, c.q.command())
		if err != nil {
			t.Fatalf("%q: %v", c.q.command(), err)
		}
		if len(lines) != len(c.want) {
			t.Errorf("%q: engine finds lines %v, fixture's answer is %v", c.q.command(), lines, c.want)
		}
	}
}

func TestExpectManyEqualsNaive(t *testing.T) {
	c := genCorpus(3, 3000)
	qs := refineQueries(c, 3, 500)
	if len(qs) < 300 {
		t.Fatalf("only %d refine queries sampled", len(qs))
	}
	// Queries whose anchor is a substring of other words, occurs twice in a
	// line, or is shared by several queries.
	qs = append(qs,
		querySpec{Must: []string{"INFO", "Operation:ReadChunk"}},
		querySpec{Must: []string{"Operation:ReadChunk"}, Not: []string{"SATADiskId:7"}},
		querySpec{Must: []string{"SATADiskId:7", "Operation:ReadChunk"}},
	)
	got, err := expectMany(c.lines, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want := expectLines(c.lines, q)
		if len(want) == 0 {
			t.Errorf("%q matches nothing", q.command())
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%q: expectMany %v, expectLines %v", q.command(), got[i], want)
		}
	}
	if _, err := expectMany(c.lines, []querySpec{{Must: []string{"short"}}}); err == nil {
		t.Error("an anchor under 8 bytes was accepted")
	}
	many, err := expectMany(fixture, []querySpec{{Must: []string{"INFO", "reqId:AAAA000000000001"}}})
	if err != nil || !reflect.DeepEqual(many[0], []int{0, 16, 19}) {
		t.Errorf("fixture: got %v, %v", many, err)
	}
}

func TestCheckResult(t *testing.T) {
	want := []int{1, 4, 15}
	entries := []string{fixture[1], fixture[4], fixture[15]}
	if err := checkResult(want, entries, want, fixture); err != nil {
		t.Errorf("exact answer refused: %v", err)
	}
	if checkResult([]int{1, 4}, entries[:2], want, fixture) == nil {
		t.Error("a missing match went unnoticed")
	}
	if checkResult([]int{1, 4, 16}, entries, want, fixture) == nil {
		t.Error("a wrong line number went unnoticed")
	}
	bad := []string{fixture[1], fixture[4] + " ", fixture[15]}
	if checkResult(want, bad, want, fixture) == nil {
		t.Error("an entry that differs by one byte went unnoticed")
	}
}

// ---- table 1 and seeds ----

func TestTable1MatchesLoggen(t *testing.T) {
	for name, spec := range table1 {
		lt, ok := loggen.ByName(name)
		if !ok {
			t.Fatalf("loggen has no type %s", name)
		}
		if spec.command() != lt.Query {
			t.Errorf("type %s: bench builds %q, loggen's Table-1 query is %q", name, spec.command(), lt.Query)
		}
	}
	lt, _ := loggen.ByName("F")
	if got := coldQueries(1)[7].command(); got != lt.Query {
		t.Errorf("broad NOT query is %q, loggen's F query is %q", got, lt.Query)
	}
}

func TestSeedDeterminism(t *testing.T) {
	a, b, other := genCorpus(7, 2000), genCorpus(7, 2000), genCorpus(8, 2000)
	if a.hash() != b.hash() {
		t.Error("the same seed gave two different corpora")
	}
	if a.hash() == other.hash() {
		t.Error("two seeds gave the same corpus")
	}
	qa, qb, qo := refineQueries(a, 7, 300), refineQueries(b, 7, 300), refineQueries(other, 8, 300)
	if !reflect.DeepEqual(qa, qb) {
		t.Error("the same seed gave two different query lists")
	}
	tokens := make(map[string]bool)
	for _, q := range qa {
		tokens[q.Must[1]] = true
	}
	shared := 0
	for _, q := range qo {
		if tokens[q.Must[1]] {
			shared++
		}
	}
	// Low-cardinality tokens (host names, detail strings) recur; ids do not.
	if shared > len(qo)/4 {
		t.Errorf("%d of %d tokens of seed 8 also occur under seed 7", shared, len(qo))
	}
	if !reflect.DeepEqual(coldQueries(7), coldQueries(7)) || reflect.DeepEqual(coldQueries(7)[8], coldQueries(8)[8]) {
		t.Error("absent token is not a function of the seed")
	}
	// Type-contiguous, and every refine query matches its own line.
	for i, start := range a.typeStart {
		if start != i*2000 {
			t.Errorf("type %d starts at line %d", i, start)
		}
	}
	for _, q := range qa[:50] {
		if len(expectLines(a.lines, q)) == 0 {
			t.Errorf("%q matches nothing", q.command())
		}
	}
}

func TestRefineTokenShape(t *testing.T) {
	sev, tok := refineToken("2021-01-01 00:00:01.000 ERROR req reqId:5E9D21AD5E473938 state:REQ_ST_CLOSED code:20012 peer 11.187.1.2")
	if sev != "ERROR" || tok != "reqId:5E9D21AD5E473938" {
		t.Errorf("got %q, %q", sev, tok)
	}
	if _, tok := refineToken("2021-01-01 00:00:01.000 INFO auth UserId:-2 action:LOGIN quota=37"); tok != "" {
		t.Errorf("low-cardinality word %q chosen", tok)
	}
	if _, tok := refineToken("2021-01-01 00:00:01.000 INFO client connected agent=Mozilla/5.0_(X11;Linux_x86_64)"); tok != "" {
		t.Errorf("token with grammar characters chosen: %q", tok)
	}
	if sev, _ := refineToken("Aug 30 10:15:42 host01 sudo: admin : TTY=pts/0 ; PWD=/root ; COMMAND=/bin/ls"); sev != "" {
		t.Errorf("line without severity sampled (%q)", sev)
	}
}

// ---- the checks fail when they should ----

func smallConfig(seed int64) engineConfig {
	return engineConfig{seed: seed, seconds: 0, linesPerType: 600, blockBytes: 256 << 10, setupReps: 1, minSamples: 9, warmQueries: 20, maxRefine: 60}
}

func TestFlippedArchiveByteFailsTheCheck(t *testing.T) {
	env, err := setupCold(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	broad := env.qs[6]
	lines, entries, _, err := coldSample(env.arc, broad, nil, nil)
	if err == nil {
		err = checkResult(lines, entries, env.want[6], env.c.lines)
	}
	if err != nil {
		t.Fatalf("pristine archive fails: %v", err)
	}
	frames, err := archive.ScanFrames(env.arc)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), env.arc...)
	bad[frames[1].PayloadOff+frames[1].PayloadLen/2] ^= 0x01
	lines, entries, _, err = coldSample(bad, broad, nil, nil)
	if err == nil {
		err = checkResult(lines, entries, env.want[6], env.c.lines)
	}
	if err == nil {
		t.Error("a flipped byte in block 1 went unnoticed by the query check")
	}
	a, err := loggrep.OpenArchive(bad)
	if err == nil {
		var got []string
		if got, err = a.ReconstructAll(); err == nil {
			err = checkReconstruct(got, env.c.raw)
		}
	}
	if err == nil {
		t.Error("a flipped byte in block 1 went unnoticed by the reconstruct check")
	}
}

func TestDroppedBatchFailsTheCheck(t *testing.T) {
	plan, err := planServe(serveConfig{seed: 2, seconds: 1, batchLines: 50, batchRate: 20, queryRate: 9, burst: 8, settled: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.bodies) != 1+20+8 || plan.steadyN != 20 || len(plan.seq) != 29*50 {
		t.Fatalf("plan has %d batches, %d steady, %d lines", len(plan.bodies), plan.steadyN, len(plan.seq))
	}
	if string(plan.bodies[3]) != strings.Join(plan.seq[150:200], "\n")+"\n" {
		t.Fatal("batch 3 is not lines 150..199 of the stream")
	}
	broad := 6
	acked := len(plan.seq)
	answer := func(stream []string) ([]int, []string) {
		lines := expectLines(stream, plan.qs[broad])
		entries := make([]string, len(lines))
		for i, l := range lines {
			entries[i] = stream[l]
		}
		return lines, entries
	}
	lines, entries := answer(plan.seq)
	if err := checkPrefixResult(lines, entries, plan.want[broad], plan.seq, acked, acked); err != nil {
		t.Fatalf("the full stream fails: %v", err)
	}
	// A server that acked batch 5 and lost it serves every later line 50
	// numbers early.
	lost := append(append([]string(nil), plan.seq[:250]...), plan.seq[300:]...)
	lines, entries = answer(lost)
	if err := checkPrefixResult(lines, entries, plan.want[broad], plan.seq, acked, acked); err == nil {
		t.Error("a dropped acked batch went unnoticed")
	}
}

func TestCheckPrefixResultBrackets(t *testing.T) {
	want := []int{3, 10, 20, 30}
	lines := make([]string, 40)
	for i := range lines {
		lines[i] = "line"
	}
	ent := func(n int) []string { return lines[:n] }
	if err := checkPrefixResult([]int{3, 10}, ent(2), want, lines, 11, 20); err != nil {
		t.Errorf("answer over the first 11..20 lines refused: %v", err)
	}
	if err := checkPrefixResult([]int{3, 10, 20}, ent(3), want, lines, 11, 25); err != nil {
		t.Errorf("answer that saw a posted, unacked batch refused: %v", err)
	}
	if checkPrefixResult([]int{3}, ent(1), want, lines, 11, 20) == nil {
		t.Error("answer missing an acked line accepted")
	}
	if checkPrefixResult([]int{3, 10, 20}, ent(3), want, lines, 11, 20) == nil {
		t.Error("answer holding a line that was never posted accepted")
	}
	if checkPrefixResult([]int{3, 20}, ent(2), want, lines, 0, 40) == nil {
		t.Error("answer with a hole accepted")
	}
}

// ---- the workloads themselves, small ----

func TestEngineWorkloadsSmall(t *testing.T) {
	cfg := smallConfig(9)
	for name, run := range map[string]func(engineConfig, *tracer) (*result, error){
		"seal-archive": runSealArchive, "query-cold": runQueryCold, "query-refine": runQueryRefine,
	} {
		for _, traced := range []bool{false, true} {
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			res, err := run(cfg, tr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.correct() {
				t.Fatalf("%s traced=%v: not correct: %+v", name, traced, res.fails)
			}
			for _, m := range res.E2E {
				if !(m.Value > 0) {
					t.Errorf("%s: %s = %v, end-to-end metrics are never 0", name, m.Name, m.Value)
				}
			}
			if traced != (res.Layer != nil) {
				t.Errorf("%s traced=%v but layer metrics present=%v", name, traced, res.Layer != nil)
			}
			if traced && len(tr.spans) == 0 {
				t.Errorf("%s: traced run recorded no span", name)
			}
			if _, err := json.Marshal(res.contract()); err != nil {
				t.Errorf("%s: result line does not marshal (a NaN or Inf metric?): %v", name, err)
			}
		}
	}
}

// TestServeMixedSmall drives the real loggrepd child through a short
// serve-mixed run and checks the child hygiene: it answers, the run is
// correct, SIGTERM ends it with exit 0, and its temp dir is gone.
func TestServeMixedSmall(t *testing.T) {
	bin, _, err := buildLoggrepd(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	cfg := serveConfig{seed: 3, seconds: 1, batchLines: 100, batchRate: 40, queryRate: 18, burst: 30, setupReps: 2, settled: 18, loggrepd: bin, tmpRoot: tmp}
	for _, traced := range []bool{false, true} {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		res, err := runServeMixed(cfg, tr)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if !res.correct() {
			t.Fatalf("traced=%v: not correct: %+v", traced, res.fails)
		}
		// 2 set-ups x 9 warm queries, 40 + 30 batches, 18 steady, 18 settled
		// and 9 final queries, 2 drains, 1 line count.
		if want := 2*9 + 40 + 30 + 18 + 18 + 9 + 2 + 1; res.fails.attempted != want {
			t.Errorf("traced=%v: %d operations checked, want %d", traced, res.fails.attempted, want)
		}
		if traced && (res.Layer["ingest.seals"].Value < 1 || res.Layer["server.cpu_s"].Value <= 0 || len(tr.spans) != 40+30+18+18) {
			t.Errorf("layer metrics %v, %d spans", res.Layer["ingest.seals"], len(tr.spans))
		}
		left, err := os.ReadDir(tmp)
		if err != nil || len(left) != 0 {
			t.Errorf("traced=%v: temp dir not cleaned: %v %v", traced, left, err)
		}
	}
}

func TestChildFailsFastWhenItCannotStart(t *testing.T) {
	if _, err := startChild("/bin/false", t.TempDir()); err == nil || !strings.Contains(err.Error(), "exited before it was ready") {
		t.Errorf("a child that exits at once gave %v", err)
	}
}

func TestCutBlocksMatchesTheWriter(t *testing.T) {
	c := genCorpus(4, 2000)
	opts := archiveOptions(100 << 10)
	arc, err := loggrep.CompressArchive(c.raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, _, frameLines, err := frameBoxes(arc)
	if err != nil {
		t.Fatal(err)
	}
	blocks := cutBlocks(c.raw, opts.BlockBytes)
	if len(blocks) != len(frameLines) || len(blocks) < 5 {
		t.Fatalf("cut %d blocks, the archive has %d frames", len(blocks), len(frameLines))
	}
	for i, b := range blocks {
		if n := strings.Count(string(b), "\n"); n != frameLines[i] {
			t.Errorf("block %d: cut %d lines, the writer's frame holds %d", i, n, frameLines[i])
		}
	}
}

// ---- BENCHMARK.json ----

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the bench", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d bytes)", i, w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(e2eTable) || len(spec.PerLayer) != len(layerTable) || len(layerTable) > 128 {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the tables %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(e2eTable), len(layerTable))
	}
	for i, d := range e2eTable {
		m := spec.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end_to_end %d: file %+v, table %+v", i, m, d)
		}
	}
	for i, d := range layerTable {
		m := spec.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: file %+v, table %+v", i, m, d)
		}
	}
}
