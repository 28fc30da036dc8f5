package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"loggrep"
	"loggrep/internal/archive"
	"loggrep/internal/blockindex"
	"loggrep/internal/capsule"
	"loggrep/internal/core"
	"loggrep/internal/logparse"
	"loggrep/internal/lzma"
	"loggrep/internal/obsv"
	"loggrep/internal/query"
	"loggrep/internal/rtpattern"
	"loggrep/internal/strmatch"
)

// The per-layer ledger. A traced run replays the workload's own inputs
// through each layer's public functions, with a span from this file around
// every call; nothing is added to the program. Attributes the program
// already returns (QueryTraced's trace, the child's /metrics) are read, not
// extended.

// layerMetrics holds one traced run's per-layer metrics. Every name of
// layerTable is always present: a layer the workload bypasses reports 0,
// which is what "bypassed" looks like in the ledger.
type layerMetrics map[string]metric

func newLayerMetrics() layerMetrics {
	lm := make(layerMetrics, len(layerTable))
	for _, d := range layerTable {
		lm[d.Name] = metric{Name: d.Name, Unit: d.Unit}
	}
	return lm
}

// set stores a value; the unit must be the one layerTable declares, so a
// typo in a name or a unit fails the first traced run instead of drifting
// from BENCHMARK.json.
func (lm layerMetrics) set(name string, v float64, unit string) {
	m, ok := lm[name]
	if !ok || m.Unit != unit {
		panic(fmt.Sprintf("bench: layer metric %q (%s) is not in layerTable", name, unit))
	}
	m.Value = v
	lm[name] = m
}

// list returns the metrics in layerTable order.
func (lm layerMetrics) list() []metric {
	out := make([]metric, 0, len(layerTable))
	for _, d := range layerTable {
		out = append(out, lm[d.Name])
	}
	return out
}

// process records the bench process's own cost, so that memory moved into
// caches or pools shows instead of hiding.
func (lm layerMetrics) process(buildS float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // a zero Maxrss reads as "unknown"
	lm.set("process.build_s", buildS, "s")
	lm.set("process.peak_rss_mb", float64(ru.Maxrss)/1024, "MB")
	lm.set("process.alloc_mb", float64(ms.TotalAlloc)/1e6, "MB")
	lm.set("process.gc_cycles", float64(ms.NumGC), "count")
}

// classLatencies reports the archive layer's median query time per class.
func (lm layerMetrics) classLatencies(qs *queryStats) {
	for class, name := range map[string]string{
		"needle": "archive.query_needle_p50_ms",
		"broad":  "archive.query_broad_p50_ms",
		"absent": "archive.query_absent_p50_ms",
		"refine": "archive.query_refine_p50_ms",
	} {
		lm.set(name, median(qs.byClass[class])*1e3, "ms")
	}
}

// allocBytes is the process's cumulative heap allocation, read without
// stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// engineAttrs sums what the program's own query traces say about the
// timed loop of a traced run.
type engineAttrs struct {
	queries                      int
	blocks, skippedIndex         map[string]int64 // per query class
	skippedStamp, searched       int64
	admitted, falseAdmits        int64
	stampAdmits, stampSkips      int64
	scans, scanHits, scanBytes   int64
	decompressions               int64
	blockSpans, queryCacheBlocks int64
	alloc                        uint64
	queryNS, blockNS             int64
}

func attrMap(attrs []obsv.Attr) map[string]int64 {
	m := make(map[string]int64, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val
	}
	return m
}

// archiveQuery runs one archive query with one worker. Untraced it is a
// plain Query. Traced it is QueryTraced under a span, the program's block
// spans are copied beneath that span as "core.Query", and the trace's
// counters are added to attrs.
func archiveQuery(a *loggrep.Archive, q querySpec, tr *tracer, attrs *engineAttrs) (*loggrep.ArchiveResult, error) {
	if tr == nil {
		return a.Query(q.command(), 1)
	}
	alloc0 := allocBytes()
	end := tr.begin("archive.Query")
	id := len(tr.spans) - 1
	r, ptr, err := a.QueryTraced(q.command(), 1)
	end()
	attrs.alloc += allocBytes() - alloc0
	if err != nil {
		return nil, err
	}
	if attrs.blocks == nil {
		attrs.blocks, attrs.skippedIndex = make(map[string]int64), make(map[string]int64)
	}
	parent := tr.spans[id]
	td := ptr.Data()
	top := attrMap(td.Attrs)
	attrs.queries++
	attrs.queryNS += parent.End - parent.Start
	attrs.blocks[q.Class] += top["blocks"]
	attrs.skippedIndex[q.Class] += top["blocks_skipped_postings"] + top["blocks_skipped_blooms"]
	attrs.skippedStamp += top["blocks_skipped"]
	attrs.searched += top["blocks_searched"]
	for _, sp := range td.Spans {
		if sp.Name != "block" {
			continue
		}
		// The program's span times are offsets from its trace start, which
		// is within microseconds of our span's start.
		tr.spans = append(tr.spans, span{
			ID: len(tr.spans), Parent: parent.ID, Op: parent.Op, Name: "core.Query",
			Start: min(parent.Start+sp.StartNS, parent.End), End: min(parent.Start+sp.StartNS+sp.DurNS, parent.End),
		})
		at := attrMap(sp.Attrs)
		attrs.blockSpans++
		attrs.blockNS += sp.DurNS
		attrs.admitted++
		if at["matches"] == 0 {
			attrs.falseAdmits++
		}
		if _, scanned := at["capsule_scans"]; !scanned {
			// A block span without scan counters was answered from the
			// store's query cache.
			attrs.queryCacheBlocks++
		}
		attrs.stampAdmits += at["stamp_admits"]
		attrs.stampSkips += at["stamp_skips"]
		attrs.scans += at["capsule_scans"]
		attrs.scanHits += at["scan_cache_hits"]
		attrs.scanBytes += at["bytes_scanned"]
		attrs.decompressions += at["decompressions"]
	}
	return r, nil
}

func sumMap(m map[string]int64) float64 {
	t := int64(0)
	for _, v := range m {
		t += v
	}
	return float64(t)
}

func (ea *engineAttrs) report(lm layerMetrics) {
	q := float64(ea.queries)
	lm.set("blockindex.skip_rate", ratio(sumMap(ea.skippedIndex), sumMap(ea.blocks)), "share")
	lm.set("blockindex.skip_rate_needle", ratio(float64(ea.skippedIndex["needle"]), float64(ea.blocks["needle"])), "share")
	lm.set("blockindex.skip_rate_absent", ratio(float64(ea.skippedIndex["absent"]), float64(ea.blocks["absent"])), "share")
	lm.set("blockindex.false_admit_rate", ratio(float64(ea.falseAdmits), float64(ea.admitted)), "share")
	lm.set("core.query_ms", ratio(float64(ea.blockNS)/1e6, float64(ea.blockSpans)), "ms")
	lm.set("core.stamp_skip_rate", ratio(float64(ea.stampSkips), float64(ea.stampSkips+ea.stampAdmits)), "share")
	lm.set("core.decompressions_per_query", ratio(float64(ea.decompressions), q), "count")
	lm.set("core.scanned_bytes_per_query", ratio(float64(ea.scanBytes), q), "B")
	lm.set("core.scan_cache_hit_rate", ratio(float64(ea.scanHits), float64(ea.scanHits+ea.scans)), "share")
	lm.set("core.query_cache_hit_rate", ratio(float64(ea.queryCacheBlocks), float64(ea.blockSpans)), "share")
	lm.set("core.alloc_bytes_per_query", ratio(float64(ea.alloc), q), "B")
	lm.set("archive.query_unattributed_share", 1-ratio(float64(ea.blockNS), float64(ea.queryNS)), "share")
}

// cutBlocks cuts raw as archive.Writer cuts it: at the last newline within
// each blockBytes window.
func cutBlocks(raw []byte, blockBytes int) [][]byte {
	var blocks [][]byte
	for len(raw) >= blockBytes {
		cut := bytes.LastIndexByte(raw[:blockBytes], '\n')
		if cut < 0 {
			nl := bytes.IndexByte(raw[blockBytes:], '\n')
			if nl < 0 {
				break
			}
			cut = blockBytes + nl
		}
		blocks = append(blocks, raw[:cut+1])
		raw = raw[cut+1:]
	}
	if len(raw) > 0 {
		blocks = append(blocks, raw)
	}
	return blocks
}

// frameBoxes slices the CapsuleBoxes out of an archive, with the global
// line number each block starts at.
func frameBoxes(arc []byte) (boxes [][]byte, lineOff, lines []int, err error) {
	frames, err := archive.ScanFrames(arc)
	if err != nil {
		return nil, nil, nil, err
	}
	off := 0
	for _, f := range frames {
		if f.Terminator {
			continue
		}
		boxes = append(boxes, arc[f.PayloadOff:f.PayloadOff+f.PayloadLen])
		lineOff = append(lineOff, off)
		lines = append(lines, f.Lines)
		off += f.Lines
	}
	return boxes, lineOff, lines, nil
}

// replaySeal charges the write path's time to its layers by calling each
// layer's public entry points on the blocks of the corpus, cut as the writer
// cuts them. archiveCompressS is the end-to-end CompressArchive time the
// layer sums are held against.
func replaySeal(env *sealEnv, arc []byte, tr *tracer, lm layerMetrics, archiveCompressS float64) {
	opts := env.opts.Core
	blocks := cutBlocks(env.c.raw, env.opts.BlockBytes)
	boxes, lineOff, frameLines, err := frameBoxes(arc)
	if err != nil || len(boxes) != len(blocks) {
		fmt.Fprintf(os.Stderr, "bench: replay skipped, archive has %d frames for %d blocks (%v)\n", len(boxes), len(blocks), err)
		return
	}
	var (
		lines, templates, outlierLines           int
		vectors, realVectors, values, outlierVal int
		calls, small, capsules                   int
		rawPayload, compPayload, padBytes        int
		compressAlloc                            uint64
		reconstructed                            int
	)
	kindS := make(map[capsule.Kind]float64)
	builder := blockindex.NewBuilder()
	for bi, block := range blocks {
		done := tr.begin("bench.replay_block")

		end := tr.begin("core.Compress")
		core.Compress(block, opts)
		end()

		end = tr.begin("logparse.Parse")
		parsed := logparse.Parse(block, opts.Parse)
		end()
		lines += parsed.NumLines
		templates += len(parsed.Groups)
		outlierLines += len(parsed.Outliers)

		for _, g := range parsed.Groups {
			for _, vals := range g.Vars {
				end = tr.begin("rtpattern.Extract")
				vectors++
				values += len(vals)
				if rtpattern.Categorize(vals, opts.Extract) == rtpattern.Real {
					realVectors++
					outlierVal += len(rtpattern.ExtractReal(vals, opts.Extract).Outliers)
				} else {
					rtpattern.ExtractNominal(vals)
				}
				end()
			}
		}

		end = tr.begin("capsule.ReadBox")
		box, err := capsule.ReadBox(boxes[bi])
		end()
		if err != nil {
			done()
			continue
		}
		capsules += len(box.Meta.Capsules)
		payloads := make([][]byte, len(box.Meta.Capsules))
		for id := range payloads {
			end = tr.begin("lzma.Decompress")
			payloads[id], _ = box.Payload(id) // a bad payload already failed the pass's reconstruct check
			end()
		}
		alloc0 := allocBytes()
		for id, p := range payloads {
			info := box.Meta.Capsules[id]
			t0 := time.Now()
			end = tr.begin("lzma.Compress")
			comp := lzma.Compress(p)
			end()
			kindS[info.Kind] += time.Since(t0).Seconds()
			calls++
			rawPayload += len(p)
			compPayload += len(comp)
			if len(p) < 256 {
				small++
			}
			if info.Width > 0 {
				padBytes += bytes.Count(p, []byte{strmatch.Pad})
			}
		}
		compressAlloc += allocBytes() - alloc0

		end = tr.begin("capsule.WriteBox")
		capsule.WriteBox(box.Meta, payloads, opts.ChunkBytes)
		end()

		end = tr.begin("blockindex.Build")
		builder.Add(uint64(lineOff[bi]), frameLines[bi], len(boxes[bi]), blockindex.ScanBlock(block))
		end()

		end = tr.begin("core.Open")
		st, err := core.Open(boxes[bi], core.QueryOptions{})
		end()
		if err == nil {
			end = tr.begin("core.ReconstructAll")
			ls, _ := st.ReconstructAll()
			end()
			reconstructed += len(ls)
		}
		done()
	}
	end := tr.begin("blockindex.Build")
	sections := builder.Sections()
	end()

	secs := totals(tr.spans).secs
	parseS, extractS := secs("logparse.Parse"), secs("rtpattern.Extract")
	lzmaS, writeBoxS := secs("lzma.Compress"), secs("capsule.WriteBox")
	coreS, indexS := secs("core.Compress"), secs("blockindex.Build")
	nb := float64(len(blocks))

	lm.set("logparse.parse_s", parseS, "s")
	lm.set("logparse.lines_per_s", ratio(float64(lines), parseS), "1/s")
	lm.set("logparse.templates_per_block", float64(templates)/nb, "count")
	lm.set("logparse.outlier_line_share", ratio(float64(outlierLines), float64(lines)), "share")
	lm.set("rtpattern.extract_s", extractS, "s")
	lm.set("rtpattern.vectors", float64(vectors), "count")
	lm.set("rtpattern.real_share", ratio(float64(realVectors), float64(vectors)), "share")
	lm.set("rtpattern.outlier_value_share", ratio(float64(outlierVal), float64(values)), "share")
	lm.set("lzma.compress_s", lzmaS, "s")
	lm.set("lzma.compress_mb_s", ratio(float64(rawPayload)/1e6, lzmaS), "MB/s")
	lm.set("lzma.calls", float64(calls), "count")
	lm.set("lzma.ratio", ratio(float64(rawPayload), float64(compPayload)), "x")
	lm.set("lzma.small_payload_share", ratio(float64(small), float64(calls)), "share")
	lm.set("lzma.alloc_bytes_per_call", ratio(float64(compressAlloc), float64(calls)), "B")
	for _, k := range []capsule.Kind{capsule.SubVar, capsule.Dict, capsule.Index, capsule.Outlier} {
		lm.set("lzma.compress_s."+k.String(), kindS[k], "s")
	}
	decompS := secs("lzma.Decompress")
	lm.set("lzma.decompress_s", decompS, "s")
	lm.set("lzma.decompress_mb_s", ratio(float64(rawPayload)/1e6, decompS), "MB/s")
	lm.set("capsule.writebox_self_s", writeBoxS-lzmaS, "s")
	lm.set("capsule.readbox_ms", ratio(secs("capsule.ReadBox")*1e3, nb), "ms")
	lm.set("capsule.capsules_per_block", float64(capsules)/nb, "count")
	lm.set("capsule.padding_share", ratio(float64(padBytes), float64(rawPayload)), "share")
	lm.set("blockindex.build_s", indexS, "s")
	lm.set("blockindex.bytes_share", ratio(float64(len(sections)), float64(len(arc))), "share")
	perBlock := sortedCopy(durations(tr.spans, "core.Compress"))
	lm.set("core.compress_s", coreS, "s")
	lm.set("core.compress_block_p50_ms", percentile(perBlock, 50)*1e3, "ms")
	lm.set("core.compress_block_max_ms", perBlock[len(perBlock)-1]*1e3, "ms")
	lm.set("core.compress_unattributed_share", 1-ratio(parseS+extractS+writeBoxS, coreS), "share")
	lm.set("core.open_ms", ratio(secs("core.Open")*1e3, nb), "ms")
	lm.set("core.reconstruct_lines_per_s", ratio(float64(reconstructed), secs("core.ReconstructAll")), "1/s")
	lm.set("archive.open_ms", median(durations(tr.spans, "archive.Open"))*1e3, "ms")
	lm.set("archive.frame_self_s", archiveCompressS-coreS-indexS, "s")

	// One pass without spans, for the overhead of tracing the pass itself.
	if _, _, plainS, _, err := sealPass(env, nil); err == nil {
		lm.set("trace.overhead_share", archiveCompressS/plainS-1, "share")
	}

	// Each row is a separate replay of the same blocks, held against the
	// row it is indented under; a remainder can be negative when a replay
	// costs more than the same work did inside its parent.
	wbRest, coreRest := writeBoxS-lzmaS, coreS-parseS-extractS-writeBoxS
	fmt.Fprintf(os.Stderr, "# ledger seal-archive (one core; replay of %d blocks)\n", len(blocks))
	for _, row := range []struct {
		label   string
		s, ofS  float64
		against string
	}{
		{"archive.Compress (median pass)", archiveCompressS, archiveCompressS, ""},
		{"  core.Compress", coreS, archiveCompressS, "archive.Compress"},
		{"    logparse.Parse", parseS, coreS, "core.Compress"},
		{"    rtpattern.Extract", extractS, coreS, "core.Compress"},
		{"    capsule.WriteBox", writeBoxS, coreS, "core.Compress"},
		{"      lzma.Compress", lzmaS, writeBoxS, "capsule.WriteBox"},
		{"      remainder (meta, framing)", wbRest, writeBoxS, "capsule.WriteBox"},
		{"    remainder (assemble, stamps)", coreRest, coreS, "core.Compress"},
		{"  blockindex scan+add+sections", indexS, archiveCompressS, "archive.Compress"},
		{"  remainder (frames, checksums)", archiveCompressS - coreS - indexS, archiveCompressS, "archive.Compress"},
	} {
		fmt.Fprintf(os.Stderr, "#   %-34s %8.3fs", row.label, row.s)
		if row.against != "" {
			fmt.Fprintf(os.Stderr, "  %5.1f%% of %s", 100*ratio(row.s, row.ofS), row.against)
		}
		fmt.Fprintln(os.Stderr)
	}
}

// keywordParts returns the pieces of a query fragment that the engine may
// look for inside a capsule: runtime patterns cut values into sub-variables
// at non-alphanumeric bytes, so besides the whole fragment each alphanumeric
// run of two or more bytes is a candidate.
func keywordParts(frag string) []string {
	parts := []string{frag}
	isAlnum := func(r rune) bool {
		return r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z'
	}
	for _, p := range strings.FieldsFunc(frag, func(r rune) bool { return !isAlnum(r) }) {
		if len(p) >= 2 && p != frag {
			parts = append(parts, p)
		}
	}
	return parts
}

// replayQuery charges the read path's time to its layers: box and store
// opens per block, query parsing, index planning, and padded-column scans
// of the capsules each keyword can reach (index-admitted blocks,
// stamp-admitted fixed-width capsules).
func replayQuery(arc []byte, qs []querySpec, tr *tracer, lm layerMetrics) {
	boxBytes, lineOff, frameLines, err := frameBoxes(arc)
	tailOff, _, terr := archive.IndexSectionRange(arc)
	if err != nil || terr != nil || tailOff < 0 {
		fmt.Fprintf(os.Stderr, "bench: replay skipped, archive frames unreadable (%v, %v)\n", err, terr)
		return
	}
	done := tr.begin("bench.replay_open")
	end := tr.begin("blockindex.DecodeSections")
	ix := blockindex.DecodeSections(arc[tailOff:])
	end()
	boxes := make([]*capsule.Box, len(boxBytes))
	for bi, b := range boxBytes {
		end = tr.begin("capsule.ReadBox")
		boxes[bi], err = capsule.ReadBox(b)
		end()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: replay skipped, block %d: %v\n", bi, err)
			done()
			return
		}
		end = tr.begin("core.Open")
		_, _ = core.Open(b, core.QueryOptions{}) // timed only; ReadBox above already proved the box decodes
		end()
	}
	done()

	var scanBytes, scanRows int
	for _, q := range qs {
		done := tr.begin("bench.replay_query")
		end := tr.begin("query.Parse")
		expr, err := query.Parse(q.command())
		end()
		if err != nil {
			done()
			continue
		}
		end = tr.begin("blockindex.Plan")
		plan := ix.NewPlan(expr)
		admitted := make([]bool, len(boxes))
		for bi := range boxes {
			admitted[bi] = plan.Admits(uint64(lineOff[bi]), frameLines[bi]) == blockindex.Admit
		}
		end()
		for _, s := range query.Searches(expr) {
			for _, frag := range s.Fragments {
				for _, part := range keywordParts(frag) {
					for bi, box := range boxes {
						if !admitted[bi] {
							continue
						}
						for id, info := range box.Meta.Capsules {
							if info.Width == 0 || !info.Stamp.Admits(part) {
								continue
							}
							// Only a payload the box has not cached yet is a
							// decompression, and so lzma's time.
							end = func() {}
							if _, cached := box.CacheSnapshot()[id]; !cached {
								end = tr.begin("lzma.Decompress")
							}
							p, err := box.Payload(id)
							end()
							if err != nil {
								continue
							}
							end = tr.begin("strmatch.FindRows")
							fw := strmatch.NewFixedWidth(p, info.Width)
							fw.FindRows(part, strmatch.Substr)
							end()
							scanBytes += fw.Bytes()
							scanRows += fw.Rows()
						}
					}
				}
			}
		}
		done()
	}

	tot := totals(tr.spans)
	secs, count := tot.secs, tot.count
	scanS, decompS := secs("strmatch.FindRows"), secs("lzma.Decompress")
	lm.set("capsule.readbox_ms", ratio(secs("capsule.ReadBox")*1e3, count("capsule.ReadBox")), "ms")
	lm.set("capsule.capsules_per_block", ratio(float64(totalCapsules(boxes)), float64(len(boxes))), "count")
	lm.set("core.open_ms", ratio(secs("core.Open")*1e3, count("core.Open")), "ms")
	lm.set("archive.open_ms", median(durations(tr.spans, "archive.Open"))*1e3, "ms")
	lm.set("query.parse_us", ratio(secs("query.Parse")*1e6, count("query.Parse")), "us")
	lm.set("blockindex.plan_us", ratio(secs("blockindex.Plan")*1e6, count("blockindex.Plan")), "us")
	lm.set("blockindex.bytes_share", ratio(float64(len(arc)-tailOff), float64(len(arc))), "share")
	lm.set("strmatch.scan_s", scanS, "s")
	lm.set("strmatch.scan_gb_s", ratio(float64(scanBytes)/1e9, scanS), "GB/s")
	lm.set("strmatch.rows_per_s", ratio(float64(scanRows), scanS), "1/s")
	lm.set("lzma.decompress_s", decompS, "s")
	decompBytes := 0
	for _, box := range boxes {
		for _, p := range box.CacheSnapshot() {
			decompBytes += len(p)
		}
	}
	lm.set("lzma.decompress_mb_s", ratio(float64(decompBytes)/1e6, decompS), "MB/s")

	printLedger(os.Stderr, tr.spans, "bench.sample")
}

func totalCapsules(boxes []*capsule.Box) int {
	n := 0
	for _, b := range boxes {
		n += len(b.Meta.Capsules)
	}
	return n
}

// buildSeconds is what compiling cost before this process started, as the
// launcher (run.sh) measured it; compile time is excluded from setup_s and
// reported as process.build_s.
func buildSeconds() float64 {
	s, _ := strconv.ParseFloat(os.Getenv("BENCH_BUILD_S"), 64) // unset when run with plain `go run`
	return s
}
