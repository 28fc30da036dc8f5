package harness

import (
	"fmt"
	"math"
	"strings"

	"loggrep/internal/core"
	"loggrep/internal/costmodel"
	"loggrep/internal/loggen"
	"loggrep/internal/logparse"
	"loggrep/internal/rtpattern"
)

// Config sizes an experiment run.
type Config struct {
	// LinesPerLog is how many entries each log block gets.
	LinesPerLog int
	// Seed drives the generators.
	Seed int64
	// QueryReps is how many times each query latency is sampled
	// (minimum taken).
	QueryReps int
}

// QuickConfig is a fast run for tests.
func QuickConfig() Config { return Config{LinesPerLog: 2000, Seed: 1, QueryReps: 1} }

// ---- Figures 7a/7b/7c: latency, ratio, speed per log × system ----------

// Fig7Row is one (log, system) measurement — one bar of Figure 7.
type Fig7Row struct {
	Log       string
	Class     string
	System    string
	RawBytes  int64
	CompBytes int64
	// CompressSec is wall time to compress the block.
	CompressSec float64
	// QuerySec is the latency of the log's Table 1 query, cold store.
	QuerySec float64
	// Matches is the query's result count (identical across systems by
	// the equivalence tests).
	Matches int
}

// Metrics converts the row for the cost model.
func (r Fig7Row) Metrics() costmodel.Metrics {
	return costmodel.Metrics{
		RawBytes:        r.RawBytes,
		CompressedBytes: r.CompBytes,
		CompressSeconds: r.CompressSec,
		QuerySeconds:    r.QuerySec,
	}
}

// RunFig7 measures every system over the given log types. It regenerates
// Figures 7(a,b,c) when given the production logs and the public-log
// halves of §6.2 when given the public ones.
func RunFig7(logs []loggen.LogType, systems []System, cfg Config) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, lt := range logs {
		block := lt.Block(cfg.Seed, cfg.LinesPerLog)
		for _, sys := range systems {
			row := Fig7Row{Log: lt.Name, Class: lt.Class, System: sys.Name, RawBytes: int64(len(block))}
			var data []byte
			sec, err := timeIt(func() error {
				var cerr error
				data, cerr = sys.Compress(block)
				return cerr
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s compress: %w", lt.Name, sys.Name, err)
			}
			row.CompressSec = sec
			row.CompBytes = int64(len(data))

			qsec, err := bestOf(cfg.QueryReps, func() error {
				q, err := sys.Open(data) // reopen: cold caches each rep
				if err != nil {
					return err
				}
				lines, _, err := q.Query(lt.Query)
				row.Matches = len(lines)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s query: %w", lt.Name, sys.Name, err)
			}
			row.QuerySec = qsec
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ---- Figure 8: overall cost -------------------------------------------

// Fig8Row aggregates one system's average cost per TB over a log class.
type Fig8Row struct {
	System string
	costmodel.Breakdown
}

// Fig8 folds Fig7 rows into per-system average cost breakdowns.
func Fig8(rows []Fig7Row, params costmodel.Params) []Fig8Row {
	order := []string{}
	sums := map[string]*Fig8Row{}
	counts := map[string]int{}
	for _, r := range rows {
		agg := sums[r.System]
		if agg == nil {
			agg = &Fig8Row{System: r.System}
			sums[r.System] = agg
			order = append(order, r.System)
		}
		b := params.CostPerTB(r.Metrics())
		agg.Storage += b.Storage
		agg.Compression += b.Compression
		agg.Query += b.Query
		counts[r.System]++
	}
	out := make([]Fig8Row, 0, len(order))
	for _, name := range order {
		agg := sums[name]
		n := float64(counts[name])
		agg.Storage /= n
		agg.Compression /= n
		agg.Query /= n
		out = append(out, *agg)
	}
	return out
}

// CrossoverRow reports, for one log where ES answers faster than LogGrep,
// how many queries ES needs before its total cost dips below LogGrep's
// (§6.1: 7,447–542,194 on the paper's logs).
type CrossoverRow struct {
	Log     string
	Queries float64
}

// Crossovers computes the ES-vs-LogGrep cost crossover per log.
func Crossovers(rows []Fig7Row, params costmodel.Params) []CrossoverRow {
	byLog := map[string]map[string]Fig7Row{}
	for _, r := range rows {
		if byLog[r.Log] == nil {
			byLog[r.Log] = map[string]Fig7Row{}
		}
		byLog[r.Log][r.System] = r
	}
	var out []CrossoverRow
	for _, r := range rows {
		if r.System != "LG" {
			continue
		}
		es, ok := byLog[r.Log]["ES"]
		if !ok || es.QuerySec >= r.QuerySec {
			continue // ES not faster on this log: no crossover of interest
		}
		if q, ok := params.CrossoverQueries(r.Metrics(), es.Metrics()); ok {
			out = append(out, CrossoverRow{Log: r.Log, Queries: q})
		}
	}
	return out
}

// ---- Figure 9: ablations ------------------------------------------------

// Fig9Row is one ablated version's average query latency normalized to
// full LogGrep (full = 1.0; higher is slower).
type Fig9Row struct {
	Version    string
	Normalized float64
}

// RunFig9 measures the structural ablations (w/o real, w/o nomi,
// w/o stamp, w/o fixed) and the cache ablation in refining mode.
func RunFig9(logs []loggen.LogType, cfg Config) ([]Fig9Row, error) {
	systems := AblationSystems()
	rows, err := RunFig7(logs, systems, cfg)
	if err != nil {
		return nil, err
	}
	lat := map[string]float64{}
	for _, r := range rows {
		lat[r.System] += r.QuerySec
	}
	full := lat["LG"]
	var out []Fig9Row
	for _, sys := range systems {
		if sys.Name == "LG" {
			continue
		}
		out = append(out, Fig9Row{Version: sys.Name, Normalized: lat[sys.Name] / full})
	}
	cacheRow, err := RunFig9Cache(logs, cfg)
	if err != nil {
		return nil, err
	}
	return append(out, cacheRow), nil
}

// RunFig9Cache measures the "w/o cache" ablation in refining mode: a
// debugging session that builds the query up clause by clause and re-runs
// commands, which is where the Query Cache pays off (§6.3).
func RunFig9Cache(logs []loggen.LogType, cfg Config) (Fig9Row, error) {
	session := func(q Querier, full string) error {
		cmds := refiningSession(full)
		for _, cmd := range cmds {
			if _, _, err := q.Query(cmd); err != nil {
				return err
			}
		}
		// The engineer re-runs the session commands while narrowing down.
		for _, cmd := range cmds {
			if _, _, err := q.Query(cmd); err != nil {
				return err
			}
		}
		return nil
	}
	var withCache, without float64
	for _, lt := range logs {
		block := lt.Block(cfg.Seed, cfg.LinesPerLog)
		data := core.Compress(block, core.DefaultOptions())
		for _, disable := range []bool{false, true} {
			st, err := core.Open(data, core.QueryOptions{DisableCache: disable})
			if err != nil {
				return Fig9Row{}, err
			}
			sec, err := timeIt(func() error { return session(coreQuerier{st}, lt.Query) })
			if err != nil {
				return Fig9Row{}, err
			}
			if disable {
				without += sec
			} else {
				withCache += sec
			}
		}
	}
	return Fig9Row{Version: "w/o cache", Normalized: without / withCache}, nil
}

// refiningSession splits a full command into the successive commands an
// engineer would try: each AND-prefix of the query.
func refiningSession(full string) []string {
	parts := strings.Split(full, " AND ")
	cmds := make([]string, 0, len(parts))
	for i := range parts {
		cmds = append(cmds, strings.Join(parts[:i+1], " AND "))
	}
	return cmds
}

// ---- Figure 3: pattern distribution vs duplication rate ----------------

// Fig3Bucket is one histogram bar of Figure 3.
type Fig3Bucket struct {
	// Lo is the bucket's lower duplication-rate bound (width 0.1).
	Lo            float64
	Single, Multi int
}

// RunFig3 builds the labeled vector corpus, measures each vector's
// duplication rate and tallies single- vs multi-pattern counts per bucket.
// It also returns the accuracy of the paper's 0.5-threshold heuristic:
// the fraction of vectors below the threshold that are single-pattern
// (tree expanding is the right tool for them).
func RunFig3(seed int64, vectors int) ([]Fig3Bucket, float64) {
	corpus := loggen.Fig3Corpus(seed, vectors)
	buckets := make([]Fig3Bucket, 10)
	for i := range buckets {
		buckets[i].Lo = float64(i) / 10
	}
	lowDup, lowDupSingle := 0, 0
	for _, v := range corpus {
		dup := rtpattern.DuplicationRate(v.Values)
		bi := int(dup * 10)
		if bi > 9 {
			bi = 9
		}
		if v.MultiPattern {
			buckets[bi].Multi++
		} else {
			buckets[bi].Single++
		}
		if dup < 0.5 {
			lowDup++
			if !v.MultiPattern {
				lowDupSingle++
			}
		}
	}
	acc := 1.0
	if lowDup > 0 {
		acc = float64(lowDupSingle) / float64(lowDup)
	}
	return buckets, acc
}

// ---- §2.2 motivating statistics -----------------------------------------

// StatsRow compares summary strictness at three granularities: whole log
// block, variable vector, and sub-variable vector (the paper reports
// 5.8/3.1/1.5 character types and 198.5/66.1/32.5 length variance).
type StatsRow struct {
	Granularity string
	// AvgTypes is the mean number of distinct character classes.
	AvgTypes float64
	// AvgLenVariance is the mean variance of value lengths.
	AvgLenVariance float64
}

// RunStats measures the §2.2 statistics over the given logs.
func RunStats(logs []loggen.LogType, cfg Config) ([]StatsRow, error) {
	var blockTypes, blockVar []float64
	var vecTypes, vecVar []float64
	var subTypes, subVar []float64

	for _, lt := range logs {
		block := lt.Block(cfg.Seed, cfg.LinesPerLog)
		lines := logparse.SplitLines(block)
		blockTypes = append(blockTypes, float64(typesOf(lines)))
		blockVar = append(blockVar, lenVariance(lines))

		parsed := logparse.Parse(block, logparse.DefaultOptions())
		for _, g := range parsed.Groups {
			for _, vec := range g.Vars {
				if len(vec) < 2 {
					continue
				}
				vecTypes = append(vecTypes, float64(typesOf(vec)))
				vecVar = append(vecVar, lenVariance(vec))
				switch rtpattern.Categorize(vec, rtpattern.DefaultOptions()) {
				case rtpattern.Real:
					res := rtpattern.ExtractReal(vec, rtpattern.DefaultOptions())
					for _, sub := range res.Subs {
						if len(sub) < 2 {
							continue
						}
						subTypes = append(subTypes, float64(typesOf(sub)))
						subVar = append(subVar, lenVariance(sub))
					}
				case rtpattern.Nominal:
					res := rtpattern.ExtractNominal(vec)
					pos := 0
					for _, dp := range res.Patterns {
						seg := res.DictValues[pos : pos+dp.Count]
						pos += dp.Count
						if len(seg) < 2 {
							continue
						}
						subTypes = append(subTypes, float64(typesOf(seg)))
						subVar = append(subVar, lenVariance(seg))
					}
				}
			}
		}
	}
	return []StatsRow{
		{Granularity: "log block", AvgTypes: mean(blockTypes), AvgLenVariance: mean(blockVar)},
		{Granularity: "variable vector", AvgTypes: mean(vecTypes), AvgLenVariance: mean(vecVar)},
		{Granularity: "sub-variable", AvgTypes: mean(subTypes), AvgLenVariance: mean(subVar)},
	}, nil
}

func typesOf(values []string) int {
	var mask uint8
	for _, v := range values {
		mask |= rtpattern.TypeMaskOf(v)
	}
	return rtpattern.TypeCount(mask)
}

func lenVariance(values []string) float64 {
	if len(values) == 0 {
		return 0
	}
	m := 0.0
	for _, v := range values {
		m += float64(len(v))
	}
	m /= float64(len(values))
	s := 0.0
	for _, v := range values {
		d := float64(len(v)) - m
		s += d * d
	}
	return s / float64(len(values))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ---- §6.3 padding study -------------------------------------------------

// PaddingRow compares compression ratio with and without fixed-length
// padding for one log (the paper: 0.99×–1.10×, 1.04× on average).
type PaddingRow struct {
	Log           string
	PaddedRatio   float64
	UnpaddedRatio float64
	PaddedOverUnp float64
}

// RunPadding measures the padding effect on compression ratio.
func RunPadding(logs []loggen.LogType, cfg Config) []PaddingRow {
	noPad := core.DefaultOptions()
	noPad.DisablePadding = true
	var out []PaddingRow
	for _, lt := range logs {
		block := lt.Block(cfg.Seed, cfg.LinesPerLog)
		padded := core.Compress(block, core.DefaultOptions())
		unpadded := core.Compress(block, noPad)
		pr := float64(len(block)) / float64(len(padded))
		ur := float64(len(block)) / float64(len(unpadded))
		out = append(out, PaddingRow{Log: lt.Name, PaddedRatio: pr, UnpaddedRatio: ur, PaddedOverUnp: pr / ur})
	}
	return out
}

// RunFile measures every system on a user-provided raw log block with a
// user query — the "bring your own log" mode of cmd/logbench.
func RunFile(name string, block []byte, queryCmd string, systems []System, reps int) ([]Fig7Row, error) {
	if reps <= 0 {
		reps = 1
	}
	var rows []Fig7Row
	for _, sys := range systems {
		row := Fig7Row{Log: name, Class: "file", System: sys.Name, RawBytes: int64(len(block))}
		var data []byte
		sec, err := timeIt(func() error {
			var cerr error
			data, cerr = sys.Compress(block)
			return cerr
		})
		if err != nil {
			return nil, fmt.Errorf("%s compress: %w", sys.Name, err)
		}
		row.CompressSec = sec
		row.CompBytes = int64(len(data))
		qsec, err := bestOf(reps, func() error {
			q, err := sys.Open(data)
			if err != nil {
				return err
			}
			lines, _, err := q.Query(queryCmd)
			row.Matches = len(lines)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s query: %w", sys.Name, err)
		}
		row.QuerySec = qsec
		rows = append(rows, row)
	}
	return rows, nil
}
