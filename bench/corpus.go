package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"loggrep/internal/loggen"
)

// mixed7 is the corpus' log types, in stream order. Each was chosen for the
// shape of its Table-1 query: A is a 4-term needle AND, F a broad NOT, G a
// long multi-variable line, I a timestamp-prefix phrase, J a selective NOT,
// S a syslog-style line without a severity word, U a multi-word phrase.
var mixed7 = []string{"A", "F", "G", "I", "J", "S", "U"}

// corpus is the generated input: the program under test only ever sees raw
// (or, on serve-mixed, slices of lines); everything else is the oracle's.
type corpus struct {
	lines     []string // type-contiguous: all of A, then all of F, ...
	raw       []byte   // lines joined by '\n', with a trailing '\n'
	typeStart []int    // index into lines of each type's first line
}

// typeSeed derives the loggen seed of one type from the run seed, so two
// run seeds share no per-type stream.
func typeSeed(seed int64, typeIdx int) int64 {
	return seed*1_000_003 + int64(typeIdx)*7919
}

// genCorpus generates linesPerType lines of every mixed7 type.
func genCorpus(seed int64, linesPerType int) *corpus {
	c := &corpus{}
	for i, name := range mixed7 {
		lt, ok := loggen.ByName(name)
		if !ok {
			panic("bench: loggen has no type " + name)
		}
		c.typeStart = append(c.typeStart, len(c.lines))
		c.lines = append(c.lines, lt.Lines(typeSeed(seed, i), linesPerType)...)
	}
	c.raw = joinLines(c.lines)
	return c
}

func joinLines(lines []string) []byte {
	n := 0
	for _, l := range lines {
		n += len(l) + 1
	}
	raw := make([]byte, 0, n)
	for _, l := range lines {
		raw = append(raw, l...)
		raw = append(raw, '\n')
	}
	return raw
}

// hash identifies the corpus bytes (seed-determinism test, NOISE.md).
func (c *corpus) hash() string {
	sum := sha256.Sum256(c.raw)
	return hex.EncodeToString(sum[:])
}

// querySpec is a query built structurally: every Must phrase occurs in a
// matching line and no Not phrase does. The bench renders it to a command
// for the program and evaluates it itself with strings.Contains, so neither
// the program's parser nor its matcher is trusted. Phrases hold no '*' and
// no operator word.
type querySpec struct {
	Class string // needle | broad | absent | refine
	Must  []string
	Not   []string
}

// command renders the spec in the program's grammar: "a AND b NOT c".
func (q querySpec) command() string {
	cmd := strings.Join(q.Must, " AND ")
	for _, n := range q.Not {
		cmd += " NOT " + n
	}
	return cmd
}

// table1 holds the Table-1 queries of the needle types as conjunct lists;
// TestTable1MatchesLoggen pins them to loggen's own query strings.
var table1 = map[string]querySpec{
	"A": {Class: "needle", Must: []string{"ERROR", "state:REQ_ST_CLOSED", "20012", "reqId:5E9D21AD5E473938"}},
	"G": {Class: "needle", Must: []string{"Operation:ReadChunk", "SATADiskId:7", "From:tcp://10.187.23.45:3212", "TraceId:3615b60b169820bf160d4acd7b8b8732"}},
	"I": {Class: "needle", Must: []string{"WARNING", "2019-11-06 07"}},
	"J": {Class: "needle", Must: []string{"TraceType:PanguTraceSummary", "SectionType:RPC_SealAndNew"}, Not: []string{"CountFail:0"}},
	"S": {Class: "needle", Must: []string{"TTY=unknown", "/etc/init.d/ilogtaild", "Aug 30 10"}},
	"U": {Class: "needle", Must: []string{"failed to read trie data", "1618152650857662364_3_149245463_199235229"}},
}

// coldQueries is the 9-query cycle of query-cold and serve-mixed: six
// selective needles (the index skips the other types' blocks), two broad
// queries with tens of thousands of matches across types (reconstruct-heavy,
// one with NOT), and one token that occurs nowhere (pure index funnel).
func coldQueries(seed int64) []querySpec {
	var qs []querySpec
	for _, name := range []string{"A", "G", "I", "J", "S", "U"} {
		qs = append(qs, table1[name])
	}
	qs = append(qs,
		querySpec{Class: "broad", Must: []string{"ERROR"}},
		querySpec{Class: "broad", Must: []string{"ERROR"}, Not: []string{"UserId:-2"}},
		querySpec{Class: "absent", Must: []string{fmt.Sprintf("nosuchtoken_%08x", uint32(seed*2654435761))}},
	)
	return qs
}

var severities = []string{"ERROR", "WARNING", "INFO", "DEBUG"}

// refineToken picks the line's refine keyword: the longest space-delimited
// word of at least 12 bytes that holds a digit, past the two timestamp
// words. That is the line's high-cardinality variable (a request id, trace
// id, address, path), so the same template yields the same position, a
// query built from it has few matches, and low-cardinality words such as
// "UserId:-2" never make a "refine" step that matches a third of the corpus.
func refineToken(line string) (severity, token string) {
	words := strings.Split(line, " ")
	for _, w := range words {
		for _, s := range severities {
			if w == s && severity == "" {
				severity = s
			}
		}
	}
	if severity == "" || len(words) < 3 {
		return "", ""
	}
	for _, w := range words[2:] {
		// ( ) " * are the query grammar's own characters.
		if len(w) >= 12 && len(w) > len(token) && strings.ContainsAny(w, "0123456789") && !strings.ContainsAny(w, `()"*`) {
			token = w
		}
	}
	return severity, token
}

// refineQueries samples up to n distinct "<severity> AND <token>" queries
// from real corpus lines, in a seed-determined order. Every query matches at
// least the line it came from. Callers split the list into a warm-up prefix
// and a timed rest, which are disjoint because tokens are distinct.
func refineQueries(c *corpus, seed int64, n int) []querySpec {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	seen := make(map[string]bool, n)
	qs := make([]querySpec, 0, n)
	for tries := 0; len(qs) < n && tries < 4*n; tries++ {
		sev, tok := refineToken(c.lines[rng.Intn(len(c.lines))])
		if tok == "" || seen[tok] {
			continue
		}
		seen[tok] = true
		qs = append(qs, querySpec{Class: "refine", Must: []string{sev, tok}})
	}
	return qs
}
